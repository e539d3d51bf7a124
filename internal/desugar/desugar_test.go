package desugar

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/printer"
	"repro/internal/resolve"
)

// runDesugared applies the configured passes and executes the result.
func runDesugared(t *testing.T, src string, opts Options) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nm := &Namer{}
	Apply(prog, opts, nm)
	out := printer.Print(prog)
	reparsed, err := parser.Parse(out)
	if err != nil {
		t.Fatalf("desugared output does not reparse: %v\n%s", err, out)
	}
	ast.MarkIntrinsics(reparsed) // the printed $forInKeys is the runtime's
	resolve.Program(reparsed)
	var buf bytes.Buffer
	in := interp.New(interp.Options{Out: &buf, Seed: 1})
	in.InstallDesugarNatives()
	if err := in.RunProgram(reparsed); err != nil {
		t.Fatalf("desugared program failed: %v\n%s", err, out)
	}
	return buf.String()
}

func runPlain(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve.Program(prog)
	var buf bytes.Buffer
	in := interp.New(interp.Options{Out: &buf, Seed: 1})
	if err := in.RunProgram(prog); err != nil {
		t.Fatalf("raw program failed: %v", err)
	}
	return buf.String()
}

func checkSame(t *testing.T, src string) {
	t.Helper()
	want := runPlain(t, src)
	got := runDesugared(t, src, Options{})
	if got != want {
		t.Errorf("desugar changed semantics:\n%s\nwant %q\ngot  %q", src, want, got)
	}
}

func TestLoopLowering(t *testing.T) {
	for _, src := range []string{
		`var s = 0; for (var i = 0; i < 5; i++) { if (i === 2) continue; s += i; } console.log(s);`,
		`var s = ""; outer: for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { if (j === 2) continue outer; s += "" + i + j; } } console.log(s);`,
		`var n = 0; do { n++; if (n === 2) continue; } while (n < 4); console.log(n);`,
		`var t = 0; for (var k in { a: 1, b: 2, c: 3 }) { if (k === "b") continue; t++; } console.log(t);`,
		`var out = []; for (;;) { out.push(out.length); if (out.length > 2) break; } console.log(out.join(""));`,
	} {
		checkSame(t, src)
	}
}

func TestNoLoopFormsRemain(t *testing.T) {
	prog, err := parser.Parse(`
for (var i = 0; i < 3; i++) { }
do { } while (false);
for (var k in {}) { }
switch (1) { case 1: break; }`)
	if err != nil {
		t.Fatal(err)
	}
	Apply(prog, Options{}, &Namer{})
	ast.Walk(prog, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.For, *ast.DoWhile, *ast.ForIn, *ast.Switch:
			t.Errorf("desugar left a %T behind", n)
		}
		return true
	})
}

func TestSwitchLowering(t *testing.T) {
	for _, src := range []string{
		`function f(x) { switch (x) { case 1: return "a"; case 2: return "b"; default: return "c"; } } console.log(f(1), f(2), f(9));`,
		`var log = ""; switch (2) { case 1: log += "1"; case 2: log += "2"; case 3: log += "3"; break; case 4: log += "4"; } console.log(log);`,
		`var log = ""; switch (9) { case 1: log += "1"; break; default: log += "d"; case 2: log += "2"; } console.log(log);`,
		`var side = ""; function t(v) { side += v; return v; } switch (2) { case t(1): case t(2): side += "hit"; } console.log(side);`,
		// A break inside a nested loop, switch or function is not the outer
		// switch's; one under if, try or a label is. A continue inside a
		// switch inside a loop is the loop's, a nested loop's its own.
		`var log = ""; switch (1) { case 1: for (var i = 0; i < 5; i++) { if (i === 2) break; } log += i;
		   var j = 0; while (true) { j++; if (j > 2) break; } do { j++; if (j > 5) break; } while (true); for (var k in {a: 1, b: 2}) { log += k; break; }
		   switch (j) { case 6: log += "in"; break; default: log += "no"; }
		   var f = function () { for (;;) { break; } return "f"; }; log += f();
		   L: { try { if (j === 6) break; } finally { log += "fin"; } log += "skipped"; }
		   log += "not reached"; case 2: log += "fell"; } console.log(log);`,
		`var log = ""; outer: for (var i = 0; i < 4; i++) { switch (i) { case 1: continue; case 2: for (var j = 0; j < 3; j++) { if (j === 1) continue; if (j === 2) continue outer; log += "j" + j; }
		   log += "no"; default: log += i; } log += "|"; } console.log(log);`,
	} {
		checkSame(t, src)
	}
}

func TestAssignmentNormalization(t *testing.T) {
	for _, src := range []string{
		`var x = 5; console.log(x++, x, ++x, x--, x);`,
		`var o = { n: 1 }; console.log(o.n++, ++o.n, o.n);`,
		`var a = [9]; var i = 0; a[i++] += 5; console.log(a[0], i);`,
		`var s = "4"; s++; console.log(s, typeof s);`,
		`var calls = 0; function idx() { calls++; return 0; } var arr = [10]; arr[idx()] *= 3; console.log(arr[0], calls);`,
	} {
		checkSame(t, src)
	}
	// Post-pass invariant: no Update or compound Assign nodes remain.
	prog, _ := parser.Parse(`var x = 1; x += 2; x++; --x; var o = {n:1}; o.n *= 2;`)
	Apply(prog, Options{}, &Namer{})
	ast.Walk(prog, func(n ast.Node) bool {
		switch a := n.(type) {
		case *ast.Update:
			t.Error("update expression survived normalization")
		case *ast.Assign:
			if a.Op != "=" {
				t.Errorf("compound assignment %q survived", a.Op)
			}
		}
		return true
	})
}

func TestArrowLowering(t *testing.T) {
	for _, src := range []string{
		`var f = (a, b) => a + b; console.log(f(1, 2));`,
		`function Box(v) { this.v = v; this.get = () => this.v * 2; } console.log(new Box(21).get());`,
		`function f() { var g = () => arguments.length; return g(); } console.log(f(7, 8));`,
		`var mk = (x) => () => x + 1; console.log(mk(4)());`,
		// The guest's own $this and $args stay its own.
		`function m() { var $this = "G"; var a = () => this.v; return a() + $this; } console.log(m.call({ v: 1 }));`,
		`function n() { var $args = "G"; var a = () => arguments[0]; return a() + $args; } console.log(n(7));`,
	} {
		checkSame(t, src)
	}
	prog, _ := parser.Parse(`var f = () => () => 1;`)
	Apply(prog, Options{}, &Namer{})
	ast.Walk(prog, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok && fn.Arrow {
			t.Error("arrow function survived lowering")
		}
		return true
	})
}

func TestAllFunctionsNamed(t *testing.T) {
	prog, _ := parser.Parse(`var f = function () {}; [1].map(function (x) { return x; }); var g = () => 0;`)
	Apply(prog, Options{}, &Namer{})
	ast.Walk(prog, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok && fn.Name == "" {
			t.Error("anonymous function survived naming")
		}
		return true
	})
}

func TestImplicitsRewrite(t *testing.T) {
	prog, _ := parser.Parse(`var c = a + b; var d = a - b; var e = a < b;`)
	Apply(prog, Options{Implicits: ImplicitsFull}, &Namer{})
	out := printer.Print(prog)
	for _, fn := range []string{"$add", "$sub", "$lt"} {
		if !strings.Contains(out, fn) {
			t.Errorf("full implicits should call %s:\n%s", fn, out)
		}
	}

	prog2, _ := parser.Parse(`var c = a + b; var d = a - b;`)
	Apply(prog2, Options{Implicits: ImplicitsPlus}, &Namer{})
	out2 := printer.Print(prog2)
	if !strings.Contains(out2, "$add") || strings.Contains(out2, "$sub") {
		t.Errorf("plus mode should rewrite only +:\n%s", out2)
	}

	// Literal operands skip the helper.
	prog3, _ := parser.Parse(`var c = 1 + 2;`)
	Apply(prog3, Options{Implicits: ImplicitsFull}, &Namer{})
	if strings.Contains(printer.Print(prog3), "$add") {
		t.Error("constant arithmetic should not be rewritten")
	}
}

func TestGettersRewrite(t *testing.T) {
	prog, _ := parser.Parse(`var v = o.f; o.g = 1; o.m(2); delete o.h;`)
	Apply(prog, Options{Getters: true}, &Namer{})
	out := printer.Print(prog)
	if !strings.Contains(out, `$get(o, "f")`) {
		t.Errorf("read should use $get:\n%s", out)
	}
	if !strings.Contains(out, `$set(o, "g", 1)`) {
		t.Errorf("write should use $set:\n%s", out)
	}
	if !strings.Contains(out, ".call(") {
		t.Errorf("method call should preserve receiver:\n%s", out)
	}
	if !strings.Contains(out, "delete o.h") {
		t.Errorf("delete should keep its reference:\n%s", out)
	}
}

func TestCtorsRewrite(t *testing.T) {
	prog, _ := parser.Parse(`var a = new Foo(1); var e = new Error("x"); var d = new Date();`)
	Apply(prog, Options{CtorDesugar: true}, &Namer{})
	out := printer.Print(prog)
	if !strings.Contains(out, "$construct(Foo, [1])") {
		t.Errorf("user ctor should desugar:\n%s", out)
	}
	if !strings.Contains(out, `new Error("x")`) || !strings.Contains(out, "new Date()") {
		t.Errorf("builtin ctors must stay native:\n%s", out)
	}
}

func TestSuspendInsertion(t *testing.T) {
	prog, _ := parser.Parse(`function f() { while (true) { g(); } } function h() { return 1; }`)
	Apply(prog, Options{Suspend: true}, &Namer{})
	out := printer.Print(prog)
	if strings.Count(out, "$suspend()") < 3 {
		t.Errorf("every function and loop should call $suspend:\n%s", out)
	}
}

func TestBreakpointInsertion(t *testing.T) {
	prog, _ := parser.Parse("var a = 1;\nvar b = 2;\nfunction f() { return 3; }")
	Apply(prog, Options{Breakpoints: true}, &Namer{})
	out := printer.Print(prog)
	for _, call := range []string{"$bp(1)", "$bp(2)", "$bp(3)"} {
		if !strings.Contains(out, call) {
			t.Errorf("missing %s:\n%s", call, out)
		}
	}
}

// TestBreakpointPlacement: a $bp precedes every statement of every list and
// every lone child, which becomes a block to hold it, in every function —
// those in an if's test and a for's init included — but never stands
// between a label and its statement.
func TestBreakpointPlacement(t *testing.T) {
	prog, _ := parser.Parse("if (x) y();\nL: while (t) {\n  z();\n}\n" +
		"if (xs.some(function (v) {\n  return v;\n})) {\n  w();\n}\n" +
		"for (var f = function () {\n  q();\n}; ; ) {}\n{\n  b();\n}")
	Apply(prog, Options{Breakpoints: true}, &Namer{})
	out := printer.Print(prog)
	if !strings.Contains(out, "if (x) {\n  $bp(1);\n  y();\n}") {
		t.Errorf("the if's lone child should become a block holding its $bp:\n%s", out)
	}
	lines := []int{1, 1, 2, 3, 5, 6, 8, 10, 11, 13, 14}
	for _, line := range lines {
		if call := fmt.Sprintf("$bp(%d)", line); !strings.Contains(out, call) {
			t.Errorf("missing %s:\n%s", call, out)
		}
	}
	if n := strings.Count(out, "$bp("); n != len(lines) {
		t.Errorf("%d $bp calls, want %d:\n%s", n, len(lines), out)
	}
}

func TestArgsFullRewrite(t *testing.T) {
	src := `function f(a, b) { return a + b; } console.log(f(1, 2));`
	want := runPlain(t, src)
	got := runDesugared(t, src, Options{ArgsFull: true})
	if got != want {
		t.Errorf("args-full changed semantics: want %q got %q", want, got)
	}
	prog, _ := parser.Parse(`function f(a) { return a; }`)
	Apply(prog, Options{ArgsFull: true}, &Namer{})
	out := printer.Print(prog)
	if !strings.Contains(out, "arguments[0]") {
		t.Errorf("formals should become arguments indexing:\n%s", out)
	}
}

func TestNamerFreshness(t *testing.T) {
	nm := &Namer{}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := nm.Fresh("$x")
		if seen[n] {
			t.Fatalf("duplicate fresh name %q", n)
		}
		seen[n] = true
	}
}

// TestLoopLoweringNameOrder pins the order loop lowering draws fresh names
// in, which generated code shows: a for's body, update, test, then init; a
// while's body before its test; a switch's case tests last to first.
func TestLoopLoweringNameOrder(t *testing.T) {
	loop := func(tag string) string { return tag + "(function () { do {} while (0); })" }
	src := "for (var i = " + loop("init") + "; " + loop("test") + "; " + loop("update") + ") { do {} while (0); }\n" +
		"while (" + loop("w") + ") { do {} while (0); }\n" +
		"switch (" + loop("disc") + ") { case " + loop("c1") + ": break; case " + loop("c2") + ": do {} while (0); }"
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	Apply(prog, Options{}, &Namer{})
	// Each $L<n> in print order (function naming draws from the same
	// Namer): the for's init, test, own label, body and update; the while's
	// test, then body; the switch's disc, case tests, own label twice (the
	// block and the retargeted break) and the second case's body.
	var got []string
	for _, f := range strings.FieldsFunc(printer.Print(prog), func(r rune) bool { return r != '$' && r != 'L' && (r < '0' || r > '9') }) {
		if strings.HasPrefix(f, "$L") {
			got = append(got, f)
		}
	}
	want := "$L12 $L11 $L8 $L9 $L10 $L14 $L13 $L18 $L20 $L19 $L15 $L15 $L21"
	if strings.Join(got, " ") != want {
		t.Errorf("labels in print order %q, want %q\n%s", strings.Join(got, " "), want, printer.Print(prog))
	}
}
