package resolve_test

import (
	"bytes"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// runResolved executes src through the resolver and returns console output.
func runResolved(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve.Program(prog)
	var buf bytes.Buffer
	in := interp.New(interp.Options{Out: &buf})
	if err := in.RunProgram(prog); err != nil {
		t.Fatalf("resolved run: %v", err)
	}
	return buf.String()
}

// expect asserts what src prints, which is what JavaScript prints.
func expect(t *testing.T, src, want string) {
	t.Helper()
	if got := runResolved(t, src); got != want {
		t.Fatalf("got %q, want %q\nsource:%s", got, want, src)
	}
}

func TestShadowing(t *testing.T) {
	out := runResolved(t, `
var x = "global";
function outer(x) {
	function inner() { var x = "inner"; return x; }
	return x + "/" + inner();
}
console.log(outer("param"), x);
function catcher() {
	var e = "local";
	try { throw "thrown"; } catch (e) { return e; }
	return e;
}
console.log(catcher());
`)
	if out != "param/inner global\nthrown\n" {
		t.Fatalf("unexpected output %q", out)
	}
}

func TestClosureCapturesLoopVariable(t *testing.T) {
	// var has function scope: every closure shares the same frame slot, so
	// all of them see the final value — the classic var-capture behavior the
	// slot representation must preserve.
	out := runResolved(t, `
var fns = [];
function make() {
	for (var i = 0; i < 3; i++) { fns.push(function () { return i; }); }
}
make();
console.log(fns[0](), fns[1](), fns[2]());
`)
	if out != "3 3 3\n" {
		t.Fatalf("loop capture should share one slot: %q", out)
	}
}

func TestHoistingIntoSlotFrames(t *testing.T) {
	out := runResolved(t, `
function f() {
	var seen = typeof x;
	var called = g();
	var x = 1;
	function g() { return "hoisted"; }
	return seen + "/" + called + "/" + x;
}
console.log(f());
`)
	if out != "undefined/hoisted/1\n" {
		t.Fatalf("hoisting semantics changed: %q", out)
	}
}

func TestNamedFunctionExpressionSelfReference(t *testing.T) {
	expect(t, `
var fact = function fac(n) { return n < 2 ? 1 : n * fac(n - 1); };
console.log(fact(5));
`, "120\n")
}

func TestDuplicateParams(t *testing.T) {
	expect(t, `
function f(a, a) { return String(a); }
console.log(f(1), f(1, 2));
`, "undefined 2\n")
}

func TestThisAndNewTarget(t *testing.T) {
	expect(t, `
function Point(x) {
	this.x = x;
	this.isNew = new.target !== undefined;
}
var p = new Point(3);
console.log(p.x, p.isNew);
var o = { v: 7, get: function () { return this.v; } };
console.log(o.get());
`, "3 true\n7\n")
}

func TestArgumentsObject(t *testing.T) {
	expect(t, `
function count() { return arguments.length; }
function second() { return arguments[1]; }
function forward() { return count.apply(this, arguments); }
console.log(count(1, 2, 3), second("a", "b"), forward(1, 2));
`, "3 b 2\n")
}

func TestImplicitGlobalFromFunction(t *testing.T) {
	expect(t, `
function leak() { leaked = 99; }
leak();
console.log(leaked);
`, "99\n")
}

func TestGlobalLateBinding(t *testing.T) {
	// f is created before `later` exists; the reference must stay a global
	// one and observe the binding's current value on every call.
	expect(t, `
function f() { return later; }
var later = 1;
console.log(f());
later = 2;
console.log(f());
`, "1\n2\n")
}

func TestForInLoopVariable(t *testing.T) {
	expect(t, `
function keys(o) {
	var out = [];
	for (var k in o) { out.push(k); }
	return out.join(",");
}
console.log(keys({a: 1, b: 2}));
for (var g in {x: 1}) { console.log(g); }
`, "a,b\nx\n")
}

func TestTryCatchFinally(t *testing.T) {
	expect(t, `
function f() {
	var log = [];
	try {
		try { throw "inner"; } catch (e) { log.push(e); e = "rebound"; log.push(e); throw "outer"; }
	} catch (e) {
		log.push(e);
	} finally {
		log.push("finally");
	}
	return log.join("|");
}
console.log(f());
`, "inner|rebound|outer|finally\n")
}

func TestFuncDeclHoistedOutOfCatch(t *testing.T) {
	// A function declaration inside a catch block is hoisted: its closure
	// is created at function entry with the *function* frame, so it cannot
	// see the catch parameter and its captures must not count the catch
	// frame as a hop. (Regression: the resolver once resolved these
	// against the catch scope, skewing every captured Ref by one frame.)
	out := runResolved(t, `
function f() {
	var x = 1;
	try { throw 0; } catch (e) { function g() { return x; } console.log(g()); }
}
f();
function h(a, b) {
	try { throw 42; } catch (e) { function g2() { return typeof e; } console.log(g2()); }
}
h();
`)
	if out != "1\nundefined\n" {
		t.Fatalf("catch-hoisted function declarations broken: %q", out)
	}
}

func TestFuncDeclInTopLevelCatch(t *testing.T) {
	// Same hoisting rule at the top level: the closure is created in the
	// global frame before the try even runs, so it does not see e (an engine
	// with block-level function declarations prints global/string).
	expect(t, `
var y = "global";
try { throw "boom"; } catch (e) { function g() { return y + "/" + typeof e; } }
console.log(g());
`, "global/undefined\n")
}

func TestDeeplyNestedClosures(t *testing.T) {
	expect(t, `
function a(x) {
	return function b(y) {
		return function c(z) {
			try { throw z; } catch (w) { return x + y + w; }
		};
	};
}
console.log(a(1)(2)(3));
`, "6\n")
}

func TestCompoundAndUpdateOnSlots(t *testing.T) {
	expect(t, `
function f() {
	var n = 10;
	n += 5;
	n -= 2;
	n++;
	--n;
	var post = n++;
	return String(n) + "/" + String(post);
}
console.log(f());
`, "14/13\n")
}

func TestMemberUpdateEvaluatesIndexOnce(t *testing.T) {
	// a[j++]++ and a[k] += v must evaluate base and index exactly once.
	out := runResolved(t, `
function f() {
	var j = 0;
	var a = [10, 20];
	a[j++]++;
	var calls = 0;
	function pick() { calls++; return a; }
	pick()[0] += 100;
	return String(j) + "/" + a.join(",") + "/" + calls;
}
console.log(f());
`)
	if out != "1/111,20/1\n" {
		t.Fatalf("member update side effects ran more than once: %q", out)
	}
}

func TestSwitchAndLabeledLoops(t *testing.T) {
	expect(t, `
function f(k) {
	var out = [];
	outer: for (var i = 0; i < 3; i++) {
		for (var j = 0; j < 3; j++) {
			if (j === k) { continue outer; }
			if (i === 2) { break outer; }
			out.push(i * 10 + j);
		}
	}
	switch (k) {
	case 1: out.push("one");
	case 2: out.push("two"); break;
	default: out.push("other");
	}
	return out.join(",");
}
console.log(f(1), f(0), f(5));
`, "0,10,one,two other 0,1,2,10,11,12,other\n")
}

// --- Layout unit tests -----------------------------------------------------

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve.Program(prog)
	return prog
}

func TestFrameLayout(t *testing.T) {
	prog := mustParse(t, `function f(a, b) { var c; function g() {} return a; }`)
	fn := prog.Body[0].(*ast.FuncDecl).Fn
	sc := fn.Scope
	if sc == nil {
		t.Fatal("function was not resolved")
	}
	// Layout: a, b, this, new.target, arguments, c, g. A declaration's
	// name is its enclosing scope's binding, so f has no slot of its own.
	if len(sc.Names) != 7 {
		t.Fatalf("expected 7 slots, got %d: %v", len(sc.Names), sc.Names)
	}
	if sc.SelfSlot != -1 {
		t.Errorf("a declaration has a self slot: %d %v", sc.SelfSlot, sc.Names)
	}
	if len(sc.ParamSlots) != 2 || sc.Names[sc.ParamSlots[0]] != "a" || sc.Names[sc.ParamSlots[1]] != "b" {
		t.Errorf("param slots: %v %v", sc.ParamSlots, sc.Names)
	}
	if sc.ThisSlot < 0 || sc.NewTargetSlot < 0 {
		t.Errorf("this/new.target slots missing: %+v", sc)
	}
	if sc.ArgumentsSlot != -1 {
		t.Errorf("arguments never referenced, slot should be elided: %d", sc.ArgumentsSlot)
	}
	if len(sc.FnDecls) != 1 || sc.Names[sc.FnDecls[0].Slot] != "g" {
		t.Errorf("fn decls: %+v", sc.FnDecls)
	}
	ret := fn.Body[len(fn.Body)-1].(*ast.Return)
	ref := ret.Arg.(*ast.Ident).Ref
	if !ref.Valid() || ref.Hops() != 0 || ref.Slot() != sc.ParamSlots[0] {
		t.Errorf("return a should resolve to (0, param slot): hops=%d slot=%d", ref.Hops(), ref.Slot())
	}
}

// TestFrameLayoutNamedExpression: a named function expression binds its own
// name in the first slot of its frame, ahead of its parameters, and its
// body's references to the name resolve there.
func TestFrameLayoutNamedExpression(t *testing.T) {
	prog := mustParse(t, `var h = function f(a) { return f; };`)
	fn := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.Func)
	sc := fn.Scope
	if sc == nil {
		t.Fatal("function was not resolved")
	}
	if sc.SelfSlot != 0 || sc.Names[sc.SelfSlot] != "f" {
		t.Errorf("self slot: %d %v", sc.SelfSlot, sc.Names)
	}
	if len(sc.ParamSlots) != 1 || sc.ParamSlots[0] != 1 {
		t.Errorf("param slots: %v %v", sc.ParamSlots, sc.Names)
	}
	ref := fn.Body[0].(*ast.Return).Arg.(*ast.Ident).Ref
	if !ref.Valid() || ref.Hops() != 0 || ref.Slot() != sc.SelfSlot {
		t.Errorf("return f should resolve to (0, self slot): hops=%d slot=%d", ref.Hops(), ref.Slot())
	}
}

func TestArgumentsSlotMaterializedWhenReferenced(t *testing.T) {
	prog := mustParse(t, `function f() { return arguments.length; }`)
	sc := prog.Body[0].(*ast.FuncDecl).Fn.Scope
	if sc.ArgumentsSlot < 0 {
		t.Fatalf("arguments referenced but slot elided: %+v", sc)
	}
}

func TestGlobalReferencesStayDynamic(t *testing.T) {
	prog := mustParse(t, `var g = 1; function f() { return g; }`)
	if ref := prog.Body[0].(*ast.VarDecl).Decls[0].Ref; ref.Valid() {
		t.Errorf("top-level var must stay dynamic, got ref %v", ref)
	}
	fn := prog.Body[1].(*ast.FuncDecl).Fn
	ret := fn.Body[0].(*ast.Return)
	if ref := ret.Arg.(*ast.Ident).Ref; ref.Valid() {
		t.Errorf("reference to a global must stay dynamic, got ref %v", ref)
	}
}

func TestClosureHops(t *testing.T) {
	prog := mustParse(t, `function f(x) { return function () { return x; }; }`)
	outer := prog.Body[0].(*ast.FuncDecl).Fn
	inner := outer.Body[0].(*ast.Return).Arg.(*ast.Func)
	ref := inner.Body[0].(*ast.Return).Arg.(*ast.Ident).Ref
	if !ref.Valid() || ref.Hops() != 1 {
		t.Fatalf("captured x should be one hop out, got valid=%v hops=%d", ref.Valid(), ref.Hops())
	}
	if ref.Slot() != outer.Scope.ParamSlots[0] {
		t.Fatalf("captured x slot mismatch: %d vs %d", ref.Slot(), outer.Scope.ParamSlots[0])
	}
}

func TestCatchScopeLayout(t *testing.T) {
	prog := mustParse(t, `function f() { var v; try { v = 1; } catch (e) { v = e; } }`)
	fn := prog.Body[0].(*ast.FuncDecl).Fn
	try := fn.Body[1].(*ast.Try)
	if try.CatchScope == nil || len(try.CatchScope.Names) != 1 || try.CatchScope.Names[0] != "e" {
		t.Fatalf("catch scope layout: %+v", try.CatchScope)
	}
	// Inside the catch block, v lives one hop out (past the catch frame).
	assign := try.Catch.Body[0].(*ast.ExprStmt).X.(*ast.Assign)
	ref := assign.Target.(*ast.Ident).Ref
	if !ref.Valid() || ref.Hops() != 1 {
		t.Fatalf("v inside catch should hop the catch frame: valid=%v hops=%d", ref.Valid(), ref.Hops())
	}
	eref := assign.Value.(*ast.Ident).Ref
	if !eref.Valid() || eref.Hops() != 0 || eref.Slot() != 0 {
		t.Fatalf("e should be slot 0 of the catch frame: valid=%v hops=%d slot=%d", eref.Valid(), eref.Hops(), eref.Slot())
	}
}

// siteIDs collects the inline-cache site IDs of a tree in walk order.
func siteIDs(p *ast.Program) (member, global []uint32) {
	ast.Walk(p, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Member:
			if x.Site != 0 {
				member = append(member, x.Site)
			}
		case *ast.Ident:
			if x.Site != 0 {
				global = append(global, x.Site)
			}
		}
		return true
	})
	return member, global
}

// TestSitesAreDensePerProgram pins the numbering contract the interpreter's
// exact-size cache tables rest on: a program's sites are 1..n whatever was
// resolved before it in the process, ProgramFrom continues a numbering
// without gaps or overlap, and Program.Sites records where it ended.
func TestSitesAreDensePerProgram(t *testing.T) {
	const src = `var o = {a: 1}; function f(p) { return p.a + o.a + Math.abs(p.b); } f(o); o.c = f;`
	dense := func(ids []uint32, from, to uint32) bool {
		seen := map[uint32]bool{}
		for _, id := range ids {
			if id <= from || id > to || seen[id] {
				return false
			}
			seen[id] = true
		}
		return uint32(len(ids)) == to-from
	}
	var first ast.Sites
	for i := 0; i < 3; i++ { // earlier programs leave no trace in later ones
		p := mustParse(t, src)
		m, g := siteIDs(p)
		if p.Sites.Member == 0 || p.Sites.Global == 0 {
			t.Fatalf("program has no sites: %+v", p.Sites)
		}
		if !dense(m, 0, p.Sites.Member) || !dense(g, 0, p.Sites.Global) {
			t.Fatalf("sites not dense from 1: member %v global %v, recorded %+v", m, g, p.Sites)
		}
		if i == 0 {
			first = p.Sites
		} else if p.Sites != first {
			t.Fatalf("program %d numbered to %+v, the first to %+v", i, p.Sites, first)
		}
	}

	frag, err := parser.Parse(`o.d = Math.max(o.a, 2);`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.ProgramFrom(frag, first)
	m, g := siteIDs(frag)
	if !dense(m, first.Member, frag.Sites.Member) || !dense(g, first.Global, frag.Sites.Global) {
		t.Fatalf("fragment sites %v %v do not continue %+v up to %+v", m, g, first, frag.Sites)
	}
}

func BenchmarkResolvedCalls(b *testing.B) {
	src := `
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
fib(16);
`
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	resolve.Program(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(interp.Options{})
		if err := in.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}
