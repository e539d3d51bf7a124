package bytecode

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/desugar"
	"repro/internal/instrument"
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
	return Compile(fns[0])
}

func TestTryFinallyLowersToOneHandler(t *testing.T) {
	ch := compileFirstFunc(t, `
function f() {
  for (var i = 0; i < 3; i++) {
    try { if (i) { break; } } catch (e) { return e; } finally { i++; }
  }
  try { return 1; } catch (e) { return 2; }
}`)
	dis := ch.Disassemble()
	// One handler frame per try statement, however many clauses it has.
	if n := countOp(ch, OpTry); n != 2 || ch.MaxTries != 1 {
		t.Fatalf("want 2 try instructions nesting 1 deep, got %d nesting %d:\n%s", n, ch.MaxTries, dis)
	}
	// The break, the catch body's return and normal completion each enter
	// the one copy of the finally block; the plain try/catch enters none.
	if n := countOp(ch, OpEnterFinally); n != 3 {
		t.Fatalf("want 3 enterfinally (break, return, normal), got %d:\n%s", n, dis)
	}
	if n := countOp(ch, OpEndFinally); n != 1 {
		t.Fatalf("the finally block should be emitted once, got %d:\n%s", n, dis)
	}
	var block int32 = -1
	for _, ins := range ch.Code {
		if ins.Op == OpTry && ins.B >= 0 {
			block = ins.B
		}
	}
	for pc, ins := range ch.Code {
		if ins.Op != OpEnterFinally {
			continue
		}
		if ins.A != block || ins.B <= int32(pc) || int(ins.B) >= len(ch.Code) {
			t.Fatalf("enterfinally at %d not patched (block %d): %+v\n%s", pc, block, ins, dis)
		}
	}
}

// TestCompileIsTotal pins that the compiler lowers whatever the parser
// accepts: every binary, logical, unary, update and compound-assignment
// operator and every statement kind compiles to a chunk. Compile has no
// refusal; a node kind or operator it did not know would panic here.
func TestCompileIsTotal(t *testing.T) {
	binary := []string{"+", "-", "*", "/", "%", "**", "<", ">", "<=", ">=", "==", "!=",
		"===", "!==", "&", "|", "^", "<<", ">>", ">>>", "instanceof", "in"}
	compound := []string{"+", "-", "*", "/", "%", "**", "&", "|", "^", "<<", ">>", ">>>"}
	var bodies []string
	for _, op := range binary {
		if _, ok := binaryOps[op]; !ok {
			t.Errorf("binary operator %s has no opcode", op)
		}
		bodies = append(bodies, "return a "+op+" b;")
	}
	if len(binaryOps) != len(binary) {
		t.Errorf("%d binary opcodes for %d operators", len(binaryOps), len(binary))
	}
	for _, op := range compound {
		bodies = append(bodies, "a "+op+"= b;", "o.p "+op+"= b;", "o[k] "+op+"= b;", "return g "+op+"= b;")
	}
	for _, op := range []string{"!", "~", "+", "-", "typeof", "void", "delete"} {
		bodies = append(bodies, "return "+op+" a;", "return "+op+" o.p;", "return "+op+" o[k];", "return "+op+" g;")
	}
	bodies = append(bodies,
		"return a && b;", "return a || b;",
		"a++; --b; o.p--; ++o[k]; g++; return [a++, --o.p, o[k]++, ++g];",
		"a = b; o.p = a; o[k] = b; g = a; return a = o.p = o[k] = g = 1;",
		// every statement kind
		"f(a);", "if (a) b(); else { c(); }", "var x = 1, y; return x;", "{ ; }",
		"while (a) { if (b) break; continue; }", "do { a--; } while (a);",
		"for (var i = 0; i < a; i++) { continue; }", "for (k in o) { break; }",
		"L: for (;;) { M: { break M; } continue L; }", "L: { break L; }",
		"switch (a) { case 1: break; default: b(); }", "throw a;",
		"try { a(); } catch (e) { return e; } finally { b(); }",
		"function h() { return this + new.target; } return h;",
		"var v = { p: 1, get q() { return 2; }, set q(x) {} }; return v;",
		"return new o.C(a, b), this, arguments, (a, b), a ? b : g;",
	)
	for _, body := range bodies {
		src := "function f(a, b, o, k) { " + body + " }"
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := resolve.Program(prog); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		_, fns := ast.HoistedDecls(prog.Body)
		if ch := Compile(fns[0]); len(ch.Code) == 0 {
			t.Errorf("%s: empty chunk", src)
		}
	}
}

func countOp(ch *Chunk, op Op) int {
	n := 0
	for _, ins := range ch.Code {
		if ins.Op == op {
			n++
		}
	}
	return n
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
	// Both labeled jumps compile to plain jumps: nothing to unwind, no
	// dynamic completion objects.
	if n := countOp(ch, OpJump); n < 3 || countOp(ch, OpPop) != 0 {
		t.Fatalf("labeled break/continue should compile to bare jumps:\n%s", dis)
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
		"globaleqconst",   // $mode === "normal": the guest's own global
		"jumpfalsestmt",   // …and its if
		"stmtconst",       // var t = 1 (boundary + constant push)
		"setlocalstmt",    // …and its store folded with the next boundary
		"closuresetlocal", // var g = function…
		"getlocalmember",  // o.label
		"call0local",      // g()
		"call0global",     // $suspend(): the guest's own global too
		"stmtgetlocal",    // return t
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

	// Checked call sites: each of f's two (its entry $suspend() and g()) is
	// entered and left through the fused pair, and the yield point is polled
	// too. Under every strategy each frame push, pop and re-entry and the
	// prologue's restore block get a frame instruction, and what runs when
	// none applies is the plain lowering of the same tree. Every mode guard
	// tests the realm's mode: an if's in one instruction, jumpmodene, and a
	// site's `$mode === "normal" || $lbl === L` with modeeq; no instruction
	// reads a runtime name as a global.
	for strategy, want := range map[instrument.Strategy]map[Op]int{
		instrument.Checked:     {OpSiteEnter: 2, OpSiteLeave: 2, OpSitePoll: 1, OpPushFrame: 2, OpReenter: 2, OpRestoreFrame: 1, OpPopFrame: 1, OpJumpModeNe: 6, OpModeEq: 2},
		instrument.Exceptional: {OpPushFrame: 2, OpReenter: 2, OpRestoreFrame: 1, OpPopFrame: 1, OpJumpModeNe: 4, OpModeEq: 2},
		instrument.Eager:       {OpPushFrame: 2, OpReenter: 2, OpRestoreFrame: 1, OpPopFrame: 3, OpJumpModeNe: 4, OpModeEq: 2},
	} {
		fused, plain := compileInstrumented(t, `function f(g) { var x = g(); return x + 1; }`, strategy, desugar.Options{})
		for op, n := range want {
			if got := countOp(fused, op); got != n {
				t.Errorf("%v: %v: %d, want %d\n%s", strategy, op, got, n, fused.Disassemble())
			}
		}
		for _, op := range []Op{OpGetGlobal, OpGlobalEqConst, OpCalleeGlobal, OpCall0Global} {
			if got := countOp(fused, op); got != 0 {
				t.Errorf("%v: %d %v, want none\n%s", strategy, got, op, fused.Disassemble())
			}
		}
		samePlainStream(t, strategy.String(), fused, plain)
	}

	// Under the JavaScript profile's implicits and getters every `+`, `<` and
	// `o.f` is a helper site, and one whose arguments are slots and literals
	// gets sitehelper too, naming its helper; one reading a global does not.
	js := desugar.Options{Implicits: desugar.ImplicitsFull, Getters: true}
	fused, plain := compileInstrumented(t, `function f(o, a) { var x = a + 1, y = o.f < x; return y; }`, instrument.Checked, js)
	var helpers []ast.Intrinsic
	for _, ins := range fused.Code {
		if ins.Op == OpSiteHelper {
			helpers = append(helpers, fused.Sites[ins.A].Helper)
		}
	}
	if want := []ast.Intrinsic{ast.IntrinsicAdd, ast.IntrinsicGet, ast.IntrinsicLt}; !slices.Equal(helpers, want) {
		t.Errorf("sitehelper sites %v, want %v\n%s", helpers, want, fused.Disassemble())
	}
	samePlainStream(t, "javascript", fused, plain)
	fused, _ = compileInstrumented(t, `var g = 1; function f(a) { return a + g; }`, instrument.Checked, js)
	if countOp(fused, OpSiteHelper) != 0 || countOp(fused, OpSiteEnter) == 0 {
		t.Errorf("a helper site with a global argument must be entered plainly, not through sitehelper:\n%s", fused.Disassemble())
	}
}

// samePlainStream fails t unless fused is plain with the site and frame
// instructions added: the site instructions that may do nothing dropped, and
// siteleave read as the jump it replaces.
func samePlainStream(t *testing.T, name string, fused, plain *Chunk) {
	t.Helper()
	dis := fused.Disassemble()
	var ops []Op
	for pc, ins := range fused.Code {
		switch ins.Op {
		case OpSitePoll, OpSiteHelper, OpSiteEnter:
		case OpPushFrame, OpPopFrame, OpReenter, OpRestoreFrame:
			if ins.B <= int32(pc+1) || int(ins.B) >= len(fused.Code) {
				t.Errorf("%s: %v at %d exits to %d\n%s", name, ins.Op, pc, ins.B, dis)
			}
		case OpSiteLeave:
			ops = append(ops, OpJump)
		default:
			ops = append(ops, ins.Op)
		}
	}
	var plainOps []Op
	for _, ins := range plain.Code {
		plainOps = append(plainOps, ins.Op)
	}
	if !slices.Equal(ops, plainOps) {
		t.Errorf("%s: the fused lowering is not the plain one around the site and frame instructions:\n%s\nplain:\n%s", name, dis, plain.Disassemble())
	}
	for _, s := range fused.Sites {
		if s.Body <= 0 || s.Exit <= s.Body || int(s.Exit) >= len(fused.Code) {
			t.Errorf("%s: site %+v not patched:\n%s", name, s, dis)
		}
	}
}

// compileInstrumented runs src through the compile passes that produce
// instrumented code — the desugarings of opts and $suspend insertion,
// A-normalization, the strategy, resolution — and compiles its first function
// twice: as marked, and with every site and frame mark cleared.
func compileInstrumented(t *testing.T, src string, strategy instrument.Strategy, opts desugar.Options) (fused, plain *Chunk) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	opts.Suspend = true
	desugar.Apply(prog, opts, &desugar.Namer{})
	anf.Normalize(prog)
	instrument.Apply(prog, instrument.Options{Strategy: strategy})
	resolve.Program(prog)
	_, fns := ast.HoistedDecls(prog.Body)
	fused = Compile(fns[0])
	ast.Walk(fns[0], func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.If:
			n.Site, n.Restore = false, false
		case *ast.Member:
			n.Frame = false
		}
		return true
	})
	return fused, Compile(fns[0])
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

// TestOwnArgumentsOpcodes: every read a function makes of its own
// `arguments` binding is one of the three opcodes that may see the argument
// vector, at the hops the enclosing catch clauses put it; no plain or fused
// local load names the slot, stores are plain, and an arrow's reference to
// the enclosing function's binding is an ordinary getref.
func TestOwnArgumentsOpcodes(t *testing.T) {
	ch := compileFirstFunc(t, `
function f(a, i) {
  var r = arguments[0] + arguments[i] + arguments.length;
  r += arguments[i + 1] + arguments.callee + arguments.join();
  arguments(1); arguments[0](); arguments[1] = 2; delete arguments[0]; typeof arguments;
  try { throw a; } catch (e) { r += arguments[1] + arguments.length; }
  arguments = [r];
  var g = () => arguments[0];
  return arguments;
}`)
	dis := ch.Disassemble()
	slot := -1
	for _, ins := range ch.Code {
		if ins.Op == OpGetArguments {
			slot = ast.Ref(uint32(ins.C)).Slot()
		}
	}
	for op, want := range map[Op]int{OpGetArg: 3, OpArgsLen: 2, OpGetArguments: 9} {
		if n := countOp(ch, op); n != want {
			t.Errorf("%v: %d, want %d\n%s", op, n, want, dis)
		}
	}
	hops := map[int]int{}
	for _, ins := range ch.Code {
		switch ins.Op {
		case OpGetArg, OpArgsLen, OpGetArguments:
			r := ast.Ref(uint32(ins.C))
			if r.Slot() != slot {
				t.Errorf("%v reads slot %d, not the arguments slot %d", ins.Op, r.Slot(), slot)
			}
			hops[r.Hops()]++
		case OpGetLocal, OpStmtGetLocal, OpGetLocalMember, OpGetLocalMethod, OpCalleeLocal, OpCall0Local:
			if int(ins.A) == slot {
				t.Errorf("%v loads the arguments slot raw\n%s", ins.Op, dis)
			}
		}
	}
	if hops[0] != 12 || hops[1] != 2 {
		t.Errorf("reads by hops %v, want 12 in the body and 2 inside the catch\n%s", hops, dis)
	}
	if arrow := Compile(ch.Funcs[0]); countOp(arrow, OpGetRef) != 1 || countOp(arrow, OpGetArg)+countOp(arrow, OpGetArguments) != 0 {
		t.Errorf("the arrow must read the enclosing binding with a plain getref")
	}
}
