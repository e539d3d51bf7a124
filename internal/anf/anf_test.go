package anf

import (
	"bytes"
	"testing"

	"repro/internal/ast"
	"repro/internal/desugar"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/printer"
	"repro/internal/resolve"
)

// corpus is shared by the shape tests and the semantics-preservation tests:
// each program exercises constructs the desugar+ANF pipeline must handle.
var corpus = []string{
	`console.log(1 + 2 * 3);`,
	`function f(a, b) { return a + b; } console.log(f(f(1, 2), f(3, 4)));`,
	`function g(x) { return x * 2; } console.log(g(1) + g(2) + g(3));`,
	`var x = 0; for (var i = 0; i < 5; i++) { x += i; } console.log(x);`,
	`var s = 0; var i = 10; while (i-- > 0) s++; console.log(s, i);`,
	`var n = 0; do { n++; } while (n < 4); console.log(n);`,
	`var o = { a: 1, b: 2 }; var t = 0; for (var k in o) { t++; } console.log(t);`,
	`function c(v) { return v < 3; } var j = 0; while (c(j)) { j++; } console.log(j);`,
	`var r = []; outer: for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { if (j > i) continue outer; r.push(i * 10 + j); } } console.log(r.join(","));`,
	`function f(x) { switch (x) { case 0: return "zero"; case 1: case 2: return "small"; default: return "big"; } } console.log(f(0), f(1), f(2), f(5));`,
	`var log = []; switch (2) { case 1: log.push("a"); case 2: log.push("b"); case 3: log.push("c"); break; default: log.push("d"); } console.log(log.join(""));`,
	`var x = 1; x += 2; x *= 3; x -= 4; console.log(x);`,
	`var a = [5]; a[0] += 10; console.log(a[0]);`,
	`var o = { n: 1 }; console.log(o.n++, ++o.n, o.n--, o.n);`,
	`var i = 0; var a = [0, 0]; a[i++] = 9; console.log(a[0], a[1], i);`,
	`console.log(true && 1, false && 1, 0 || "x", 2 || "y");`,
	`function t() { calls++; return true; } var calls = 0; var v = false && t(); console.log(calls);`,
	`function f() { return 7; } var v = f() || 9; console.log(v);`,
	`function f() { return 0; } var v = f() || f() + 9; console.log(v);`,
	`var x = 1 < 2 ? "yes" : "no"; console.log(x);`,
	`function a() { return 1; } function b() { return 2; } console.log(true ? a() : b(), false ? a() : b());`,
	`var x = (1, 2, 3); console.log(x);`,
	`function mk() { var n = 0; return function () { n++; return n; }; } var c = mk(); c(); console.log(c());`,
	`var f = function (x) { return x + 1; }; console.log(f(41));`,
	`var g = (a) => a * 3; console.log(g(7));`,
	`function Box(v) { this.v = v; this.get = () => this.v; } var b = new Box(5); console.log(b.get());`,
	`function P(x) { this.x = x; } P.prototype.d = function () { return this.x * 2; }; console.log(new P(21).d());`,
	`try { throw new Error("e1"); } catch (e) { console.log(e.message); } finally { console.log("fin"); }`,
	`function f() { try { return 1; } finally { console.log("f"); } } console.log(f());`,
	`var r; try { null.x; } catch (e) { r = e.name; } console.log(r);`,
	`console.log(typeof xundef, typeof 3, typeof "s");`,
	`var o = { a: 1 }; delete o.a; console.log("a" in o);`,
	`var s = "4"; s++; console.log(s, typeof s);`,
	`var n = 5; console.log(n++ + ++n);`,
	`var obj = { m: function (k) { return this.base + k; }, base: 10 }; console.log(obj.m(5));`,
	`function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); } console.log(fib(12));`,
	`var arr = [3, 1, 2]; arr.sort(function (a, b) { return a - b; }); console.log(arr.join(""));`,
	`var total = 0; for (var i = 0; i < 3; i++) { if (i === 1) continue; total += i; } console.log(total);`,
	`L: { console.log("in"); break L; } console.log("after");`,
	`var x = 10; { var x = 20; } console.log(x);`,
	`console.log([1, 2].concat([3]).length);`,
}

func pipeline(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nm := &desugar.Namer{}
	prog = desugar.Apply(prog, desugar.Options{}, nm)
	prog = Normalize(prog)
	if err := Check(prog); err != nil {
		t.Fatalf("ANF check failed for %q:\n%s\nerror: %v", src, printer.Print(prog), err)
	}
	// Round-trip through the printer so the test also validates that the
	// normalized tree prints and reparses.
	return runProg(t, printer.Print(prog))
}

func runProg(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("reparse of normalized output failed: %v\n%s", err, src)
	}
	ast.MarkIntrinsics(prog) // the printed $forInKeys is the runtime's
	resolve.Program(prog)
	var buf bytes.Buffer
	in := interp.New(interp.Options{Out: &buf, Seed: 7})
	in.InstallDesugarNatives()
	if rerr := in.RunProgram(prog); rerr != nil {
		t.Fatalf("normalized program failed: %v\n%s", rerr, src)
	}
	return buf.String()
}

func runRaw(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve.Program(prog)
	var buf bytes.Buffer
	in := interp.New(interp.Options{Out: &buf, Seed: 7})
	if rerr := in.RunProgram(prog); rerr != nil {
		t.Fatalf("raw program failed: %v", rerr)
	}
	return buf.String()
}

func TestSemanticsPreserved(t *testing.T) {
	for _, src := range corpus {
		raw := runRaw(t, src)
		got := pipeline(t, src)
		if got != raw {
			t.Errorf("pipeline changed semantics for:\n%s\nraw:  %q\nanf:  %q", src, raw, got)
		}
	}
}

func TestCheckRejectsNestedCalls(t *testing.T) {
	prog, err := parser.Parse("var x = f(g(1));")
	if err != nil {
		t.Fatal(err)
	}
	if Check(prog) == nil {
		t.Error("Check should reject nested calls")
	}
}

func TestCheckRejectsCallInCondition(t *testing.T) {
	prog, err := parser.Parse("if (f()) { x = 1; }")
	if err != nil {
		t.Fatal(err)
	}
	if Check(prog) == nil {
		t.Error("Check should reject calls in conditions")
	}
}

func TestTailCallsPreserved(t *testing.T) {
	prog, err := parser.Parse("function f(n) { return g(n); }")
	if err != nil {
		t.Fatal(err)
	}
	nm := &desugar.Namer{}
	prog = desugar.Apply(prog, desugar.Options{}, nm)
	prog = Normalize(prog)
	out := printer.Print(prog)
	if want := "return g(n);"; !bytes.Contains([]byte(out), []byte(want)) {
		t.Errorf("tail call should remain in place:\n%s", out)
	}
}

func TestNormalizeIsIdempotentOnShape(t *testing.T) {
	for _, src := range corpus[:10] {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		nm := &desugar.Namer{}
		prog = desugar.Apply(prog, desugar.Options{}, nm)
		prog = Normalize(prog)
		if err := Check(prog); err != nil {
			t.Fatalf("first normalize: %v", err)
		}
	}
}

// TestNormalizeInParts: a program normalized in parts, each NormalizeFrom
// continuing the count the last returned, reads as one Normalize over the
// whole — what lets the compiler normalize $main apart from the prelude.
func TestNormalizeInParts(t *testing.T) {
	src := ""
	for _, s := range corpus {
		src += "function part() {\n" + s + "\n}\n"
	}
	prepare := func() *ast.Program {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		desugar.Apply(prog, desugar.Options{}, &desugar.Namer{})
		return prog
	}
	whole := prepare()
	Normalize(whole)
	parts := prepare()
	tmps := 0
	for i := range parts.Body {
		tmps = NormalizeFrom(&ast.Program{Body: parts.Body[i : i+1]}, tmps)
	}
	if got, want := printer.Print(parts), printer.Print(whole); got != want {
		t.Errorf("normalized in parts:\n%s\nas a whole:\n%s", got, want)
	}
}
