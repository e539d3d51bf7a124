package interp

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// TestPushFrameIsTheLiteral: a frame the engine pushes itself (OpPushFrame)
// is the object the literal it stands for builds, down to the *Shape pointer
// that inline caches, restoreFrame and the snapshot encoder key on, and push
// is not read on the way: a guest's replacement sees nothing of it.
func TestPushFrameIsTheLiteral(t *testing.T) {
	prog, err := parser.Parse(`
var pushes = 0;
Array.prototype.push = function (x) { pushes = pushes + 1; };
function f(a) {
  var b = a + 1;
  $stack.push({label: 3, locals: [a, b], fn: f, self: this});
  return {label: 3, locals: [a, b], fn: f, self: this};
}
var lit = f(7);`)
	if err != nil {
		t.Fatal(err)
	}
	ast.Walk(prog, func(n ast.Node) bool {
		if m, ok := n.(*ast.Member); ok && m.Name == "push" {
			if id, ok := m.X.(*ast.Ident); ok && id.Name == "$stack" {
				m.Frame = true
			}
		}
		return true
	})
	resolve.Program(prog)
	in := New(Options{Bytecode: true})
	stack := in.NewArray(nil)
	in.DefineGlobal("$stack", ObjectValue(stack))
	in.SetPoll(&Poll{Stacks: [3]*Object{stack}})
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	lit := in.Global.Cell("lit").v.Obj()
	if in.ChunkRuns() == 0 || len(stack.Elems) != 1 {
		t.Fatalf("%d chunk runs, %d frames pushed: want f compiled and one frame", in.ChunkRuns(), len(stack.Elems))
	}
	frame := stack.Elems[0].Obj()
	if frame.shape != lit.shape || frame.Proto != lit.Proto || frame.Class != lit.Class {
		t.Errorf("the pushed frame's shape %p (%v) is not the literal's %p (%v)", frame.shape, frame.shape.keys, lit.shape, lit.shape.keys)
	}
	for i, p := range frame.slots {
		if want := lit.slots[i]; p.Enumerable != want.Enumerable || !StrictEquals(p.Value, want.Value) && i != 1 {
			t.Errorf("slot %d (%s) is %+v, the literal's %+v", i, frame.shape.keys[i], p, want)
		}
	}
	if locals := frame.slots[1].Value.Obj(); locals.Class != ClassArray || len(locals.Elems) != 2 || locals.Elems[1].Num() != 8 {
		t.Errorf("locals %+v, want [7, 8]", locals)
	}
	if n := in.Global.Cell("pushes").v.Num(); n != 0 {
		t.Errorf("the guest's push ran %v times", n)
	}
}
