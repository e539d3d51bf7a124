package printer

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// roundTrip parses src, prints it, reparses, reprints, and requires the two
// printed forms to be identical — the printer's core contract — and Size to
// count what Print wrote.
func roundTrip(t *testing.T, src string) string {
	t.Helper()
	p1, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse 1 (%q): %v", src, err)
	}
	out1 := Print(p1)
	if n := Size(p1); n != len(out1) {
		t.Fatalf("Size = %d, Print wrote %d bytes:\n%s", n, len(out1), out1)
	}
	p2, err := parser.Parse(out1)
	if err != nil {
		t.Fatalf("reparse failed for output:\n%s\nerror: %v", out1, err)
	}
	out2 := Print(p2)
	if out1 != out2 {
		t.Fatalf("print/parse/print not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
	return out1
}

func TestRoundTripStatements(t *testing.T) {
	sources := []string{
		"var x = 1, y = 2;",
		"if (a) b(); else c();",
		"if (a) { if (b) c(); } else d();",
		"while (x < 10) { x++; }",
		"do { x--; } while (x);",
		"for (var i = 0; i < n; i++) { sum += i; }",
		"for (;;) { break; }",
		"for (var k in o) { f(k); }",
		"L: while (true) { break L; }",
		"switch (x) { case 1: a(); break; default: b(); }",
		"try { f(); } catch (e) { g(e); } finally { h(); }",
		"throw new Error('bad');",
		"function f(a, b) { return a + b; }",
		"var f = function (x) { return x; };",
		"var g = (a, b) => a * b;",
		"var o = { a: 1, get b() { return 2; }, set b(v) { this.x = v; } };",
		"var a = [1, 2, [3, 4]];",
	}
	for _, src := range sources {
		roundTrip(t, src)
	}
}

func TestRoundTripExpressions(t *testing.T) {
	sources := []string{
		"x = 1 + 2 * 3 - 4 / 5 % 6;",
		"x = (1 + 2) * 3;",
		"x = a || b && c;",
		"x = (a || b) && c;",
		"x = a | b ^ c & d;",
		"x = (a | b) & c;",
		"x = a === b ? c : d;",
		"x = -(-y);",
		"x = -5;",
		"x = typeof a;",
		"x = void 0;",
		"x = delete o.p;",
		"x = a instanceof B;",
		"x = 'k' in o;",
		"x = a << 2 >>> 1;",
		"x = ++a + b++;",
		"x = a.b.c[d].e;",
		"x = f(g(h(1)));",
		"x = new F(1, 2).m();",
		"x = new (f())(3);",
		"x = (1).toString();",
		"x = 2 ** 3 ** 2;",
		"x = (2 ** 3) ** 2;",
		"x = (a, b, c);",
		"x = a + (b, c);",
		"f(function () { return 1; });",
		"x = '\\n\\t\"quotes\"';",
	}
	for _, src := range sources {
		roundTrip(t, src)
	}
}

func TestExprStmtParenthesization(t *testing.T) {
	// An object literal or function expression in statement position must be
	// parenthesized to survive reparsing.
	prog := &ast.Program{Body: []ast.Stmt{
		ast.ExprOf(&ast.Object{Props: []ast.Property{{Kind: ast.PropInit, Key: "a", Value: ast.Int(1)}}}),
		ast.ExprOf(ast.Fn([]string{"x"}, ast.Ret(ast.Id("x")))),
	}}
	out := Print(prog)
	if _, err := parser.Parse(out); err != nil {
		t.Fatalf("statement-position literal must reparse:\n%s\nerror: %v", out, err)
	}
}

func TestDanglingElse(t *testing.T) {
	// if (a) { if (b) c() } else d() — printing must not attach else to the
	// inner if.
	inner := &ast.If{Test: ast.Id("b"), Cons: ast.ExprOf(ast.CallId("c"))}
	outer := &ast.If{Test: ast.Id("a"), Cons: inner, Alt: ast.ExprOf(ast.CallId("d"))}
	out := PrintStmt(outer)
	p, err := parser.Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	reIf := p.Body[0].(*ast.If)
	if reIf.Alt == nil {
		t.Fatalf("else clause lost:\n%s", out)
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {1, "1"}, {-1, "-1"}, {3.5, "3.5"},
		{1e21, "1e+21"}, {0.001, "0.001"}, {1234567890, "1234567890"},
	}
	for _, c := range cases {
		if got := FormatNumber(c.v); got != c.want {
			t.Errorf("FormatNumber(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestQuote(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc", `"abc"`},
		{"a\"b", `"a\"b"`},
		{"a\nb", `"a\nb"`},
		{"a\\b", `"a\\b"`},
		{"\x01", `"\x01"`},
	}
	for _, c := range cases {
		if got := Quote(c.in); got != c.want {
			t.Errorf("Quote(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestNegativeNumberMember(t *testing.T) {
	// (-5).toString() must not print as -5.toString().
	m := ast.CallN(ast.Dot(ast.Num(-5), "toString"))
	out := PrintExpr(m)
	if _, err := parser.ParseExpr(out); err != nil {
		t.Fatalf("negative receiver must reparse: %s (%v)", out, err)
	}
}

func TestElisionRoundTrip(t *testing.T) {
	// A printed elision must re-parse to the same element count: a
	// trailing hole needs its extra comma (`[1, , ]`, not `[1, ]`).
	for _, src := range []string{"x = [,1]", "x = [1,,3]", "x = [1,,]", "x = [,]", "x = [,,]"} {
		p1, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		printed := Print(p1)
		p2, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("%s → %q: %v", src, printed, err)
		}
		arr1 := p1.Body[0].(*ast.ExprStmt).X.(*ast.Assign).Value.(*ast.Array)
		arr2 := p2.Body[0].(*ast.ExprStmt).X.(*ast.Assign).Value.(*ast.Array)
		if len(arr1.Elems) != len(arr2.Elems) {
			t.Errorf("%s → %q: %d elems re-parsed as %d", src, printed, len(arr1.Elems), len(arr2.Elems))
		}
	}
}
