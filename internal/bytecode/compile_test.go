package bytecode

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// compileFirstFunc parses src, resolves it, and compiles its first
// top-level function declaration.
func compileFirstFunc(t *testing.T, src string) *Chunk {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve.Program(prog)
	_, fns := ast.HoistedDecls(prog.Body)
	if len(fns) == 0 {
		t.Fatal("no function in source")
	}
	ch := Compile(fns[0])
	if ch == nil {
		t.Fatalf("function did not compile:\n%s", src)
	}
	return ch
}

func TestCompileRejectsUnresolved(t *testing.T) {
	prog, err := parser.Parse(`function f() { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	// No resolve pass: the function has no frame layout.
	_, fns := ast.HoistedDecls(prog.Body)
	if ch := Compile(fns[0]); ch != nil {
		t.Fatal("compiled a function with no Scope; it must stay on the tree-walker")
	}
}

func TestTryFinallyBecomesEscapeHatch(t *testing.T) {
	ch := compileFirstFunc(t, `
function f() {
  for (var i = 0; i < 3; i++) {
    try { if (i) { break; } } finally { i++; }
  }
  try { return 1; } catch (e) { return 2; }
}`)
	dis := ch.Disassemble()
	if !strings.Contains(dis, "execstmt") {
		t.Fatalf("try/finally should lower to an escape hatch:\n%s", dis)
	}
	// The plain try/catch lowers natively.
	if !strings.Contains(dis, "try") || !strings.Contains(dis, "entercatch") {
		t.Fatalf("try/catch should lower natively:\n%s", dis)
	}
	if len(ch.Stmts) != 1 {
		t.Fatalf("expected exactly one escape-hatch statement, got %d", len(ch.Stmts))
	}
	// The escape hatch sits inside the for loop: its jump table must
	// expose the loop as a break/continue target.
	if len(ch.JumpTabs) != 1 {
		t.Fatalf("expected one jump table, got %d", len(ch.JumpTabs))
	}
	tab := ch.JumpTabs[0]
	foundLoop := false
	for _, tg := range tab {
		if tg.Loop && tg.BreakPlain {
			foundLoop = true
			if tg.BreakPC < 0 || tg.ContPC < 0 {
				t.Fatalf("loop target not patched: %+v", tg)
			}
		}
	}
	if !foundLoop {
		t.Fatalf("escape hatch jump table misses the enclosing loop: %+v", tab)
	}
}

func TestArrayHolesCompileToUndef(t *testing.T) {
	ch := compileFirstFunc(t, `function f() { return [,1,,3,,]; }`)
	dis := ch.Disassemble()
	if strings.Count(dis, "undef") < 3 {
		t.Fatalf("elided holes should push undefined:\n%s", dis)
	}
	found := false
	for _, ins := range ch.Code {
		if ins.Op == OpArray && ins.A == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("array literal should carry all five elements:\n%s", dis)
	}
}

func TestAccessorPropsUseSetAccessor(t *testing.T) {
	ch := compileFirstFunc(t, `
function f() { return { get x() { return 1; }, set x(v) {}, y: 2 }; }`)
	if len(ch.Accessors) != 2 {
		t.Fatalf("expected two accessor records, got %d", len(ch.Accessors))
	}
	if ch.Accessors[0].Setter || !ch.Accessors[1].Setter {
		t.Fatalf("accessor kinds wrong: %+v", ch.Accessors)
	}
	dis := ch.Disassemble()
	if !strings.Contains(dis, "setaccessor") || !strings.Contains(dis, "setprop") {
		t.Fatalf("object literal lowering wrong:\n%s", dis)
	}
}

func TestLabeledLoopsResolveStatically(t *testing.T) {
	ch := compileFirstFunc(t, `
function f() {
  outer: for (var i = 0; i < 3; i++) {
    for (var j = 0; j < 3; j++) {
      if (j) { continue outer; }
      if (i) { break outer; }
    }
  }
  return i;
}`)
	dis := ch.Disassemble()
	// Both labeled jumps compile to plain jumps — no escape hatch, no
	// dynamic completion objects.
	if strings.Contains(dis, "execstmt") {
		t.Fatalf("labeled break/continue should compile to jumps:\n%s", dis)
	}
}

func TestFusionsApply(t *testing.T) {
	ch := compileFirstFunc(t, `
function f(o) {
  var t = 1;
  var g = function () { return 2; };
  if ($mode === "normal") { t = o.label; }
  g();
  $suspend();
  return t;
}`)
	dis := ch.Disassemble()
	for _, want := range []string{
		"jumpglobalneconst", // if ($mode === "normal") guard
		"stmtconst",         // var t = 1 (boundary + constant push)
		"setlocalstmt",      // …and its store folded with the next boundary
		"closuresetlocal",   // var g = function…
		"getlocalmember",    // o.label
		"call0local",        // g()
		"call0global",       // $suspend()
		"stmtgetlocal",      // return t
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("missing fused instruction %s:\n%s", want, dis)
		}
	}
	// const+setlocal mid-statement (a second declarator) still fuses.
	ch2 := compileFirstFunc(t, `function f() { var a = 1, b = 2; return a + b; }`)
	if !strings.Contains(ch2.Disassemble(), "constsetlocal") {
		t.Errorf("missing constsetlocal:\n%s", ch2.Disassemble())
	}
}

// TestFuseBarrierKeepsLoopHeads pins the fusion-safety rule: a statement
// marker that is a jump target (a do-while body head) must not merge into
// the marker before it, or the loop would re-count the wrong statements.
func TestFuseBarrierKeepsLoopHeads(t *testing.T) {
	ch := compileFirstFunc(t, `
function f() {
  var n = 0;
  do { n++; } while (n < 3);
  return n;
}`)
	// Find the do-while back-jump target and check it lands on an
	// instruction that still carries the body's own boundary marker
	// (forward fusion with the body's first value push is fine; merging
	// into the instruction before the head is not).
	for _, ins := range ch.Code {
		if ins.Op == OpJumpIfTrue {
			switch tgt := ch.Code[ins.A]; tgt.Op {
			case OpStmt, OpStmtGetLocal, OpStmtConst:
			default:
				t.Fatalf("do-while body head fused away; target is %s", tgt.Op)
			}
		}
	}
}

func TestMaxStackCoversOperands(t *testing.T) {
	ch := compileFirstFunc(t, `
function f(a, b, c) { return f(a + 1, b * 2, c + a + b)[a][b](a, b, c); }`)
	if ch.MaxStack < 5 {
		t.Fatalf("MaxStack suspiciously small: %d", ch.MaxStack)
	}
}
