package interp

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// TestPushFrameIsTheLiteral: a frame the engine pushes itself (OpPushFrame)
// is the array the literal it stands for builds — its class, prototype and
// elements, the arguments object a saved slot holds built as the literal
// builds it — and push is not read on the way: a guest's replacement sees
// nothing of it.
func TestPushFrameIsTheLiteral(t *testing.T) {
	prog, err := parser.Parse(`
var pushes = 0;
Array.prototype.push = function (x) { pushes = pushes + 1; };
function f(a) {
  var b = a + 1;
  $stack.push([3, f, this, arguments, a, b]);
  return [3, f, this, arguments, a, b];
}
var lit = f(7);`)
	if err != nil {
		t.Fatal(err)
	}
	ast.MarkIntrinsics(prog)
	ast.Walk(prog, func(n ast.Node) bool {
		if m, ok := n.(*ast.Member); ok && m.Name == "push" {
			if id, ok := m.X.(*ast.Ident); ok && id.Intrinsic() == ast.IntrinsicStack {
				m.Frame = true
			}
		}
		return true
	})
	resolve.Program(prog)
	in := New(Options{Bytecode: true})
	stack := in.NewArray(nil)
	p := &Poll{}
	p.Intrinsics[ast.IntrinsicStack] = stack
	in.SetPoll(p)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	lit := in.Global.Cell("lit").v.Obj()
	if in.ChunkRuns() == 0 || len(stack.Elems) != 1 {
		t.Fatalf("%d chunk runs, %d frames pushed: want f compiled and one frame", in.ChunkRuns(), len(stack.Elems))
	}
	frame := stack.Elems[0].Obj()
	if frame.Proto != lit.Proto || frame.Class != lit.Class || len(frame.Elems) != len(lit.Elems) {
		t.Fatalf("the pushed frame (%v, %d elements) is not the literal (%v, %d elements)", frame.Class, len(frame.Elems), lit.Class, len(lit.Elems))
	}
	for i, v := range frame.Elems {
		if want := lit.Elems[i]; !StrictEquals(v, want) && i != 3 {
			t.Errorf("element %d is %v, the literal's %v", i, v, want)
		}
	}
	if args := frame.Elems[3].Obj(); args == nil || args.Class != ClassArguments || args.Elems[0].Num() != 7 {
		t.Errorf("element 3 is %v, want f's arguments object", frame.Elems[3])
	}
	if frame.Elems[5].Num() != 8 {
		t.Errorf("saved b is %v, want 8", frame.Elems[5])
	}
	if n := in.Global.Cell("pushes").v.Num(); n != 0 {
		t.Errorf("the guest's push ran %v times", n)
	}
}
