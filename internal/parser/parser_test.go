package parser

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func parseErr(t *testing.T, src string) {
	t.Helper()
	if _, err := Parse(src); err == nil {
		t.Errorf("Parse(%q) should fail", src)
	}
}

func TestVarDeclarations(t *testing.T) {
	p := parse(t, "var x = 1, y, z = x + 2;")
	d, ok := p.Body[0].(*ast.VarDecl)
	if !ok || len(d.Decls) != 3 {
		t.Fatalf("want VarDecl with 3 declarators, got %#v", p.Body[0])
	}
	if d.Decls[1].Name != "y" || d.Decls[1].Init != nil {
		t.Errorf("second declarator should be bare y")
	}
}

func TestLetConstNormalizeToVar(t *testing.T) {
	p := parse(t, "let a = 1; const b = 2;")
	for i := 0; i < 2; i++ {
		if _, ok := p.Body[i].(*ast.VarDecl); !ok {
			t.Errorf("statement %d should normalize to VarDecl", i)
		}
	}
}

func TestPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*ast.Binary)
	if add.Op != "+" {
		t.Fatalf("top op = %q, want +", add.Op)
	}
	mul := add.R.(*ast.Binary)
	if mul.Op != "*" {
		t.Fatalf("right op = %q, want *", mul.Op)
	}
}

func TestLogicalVsBitwise(t *testing.T) {
	e, err := ParseExpr("a || b && c | d")
	if err != nil {
		t.Fatal(err)
	}
	or := e.(*ast.Logical)
	if or.Op != "||" {
		t.Fatalf("top = %q, want ||", or.Op)
	}
	and := or.R.(*ast.Logical)
	if and.Op != "&&" {
		t.Fatalf("right = %q, want &&", and.Op)
	}
}

func TestExponentRightAssoc(t *testing.T) {
	e, err := ParseExpr("2 ** 3 ** 2")
	if err != nil {
		t.Fatal(err)
	}
	top := e.(*ast.Binary)
	if _, ok := top.R.(*ast.Binary); !ok {
		t.Error("** should be right-associative")
	}
}

func TestTernaryAndAssignment(t *testing.T) {
	e, err := ParseExpr("x = a ? b : c")
	if err != nil {
		t.Fatal(err)
	}
	asn := e.(*ast.Assign)
	if _, ok := asn.Value.(*ast.Cond); !ok {
		t.Error("assignment value should be conditional")
	}
}

func TestCompoundAssignment(t *testing.T) {
	for _, op := range []string{"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="} {
		e, err := ParseExpr("x " + op + " 2")
		if err != nil {
			t.Fatalf("op %s: %v", op, err)
		}
		if e.(*ast.Assign).Op != op {
			t.Errorf("op = %q, want %q", e.(*ast.Assign).Op, op)
		}
	}
}

func TestMemberChains(t *testing.T) {
	e, err := ParseExpr("a.b[c].d(e)(f)")
	if err != nil {
		t.Fatal(err)
	}
	outer := e.(*ast.Call)
	inner := outer.Callee.(*ast.Call)
	m := inner.Callee.(*ast.Member)
	if m.Name != "d" {
		t.Errorf("member = %q, want d", m.Name)
	}
}

func TestKeywordPropertyAccess(t *testing.T) {
	if _, err := ParseExpr("a.default"); err != nil {
		t.Errorf("keyword property name should parse: %v", err)
	}
}

func TestNewExpressions(t *testing.T) {
	e, err := ParseExpr("new Foo(1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	n := e.(*ast.New)
	if len(n.Args) != 2 {
		t.Errorf("args = %d, want 2", len(n.Args))
	}

	e, err = ParseExpr("new a.b.C()")
	if err != nil {
		t.Fatal(err)
	}
	n = e.(*ast.New)
	if _, ok := n.Callee.(*ast.Member); !ok {
		t.Error("new callee should be member chain")
	}

	e, err = ParseExpr("new Foo")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.(*ast.New).Args) != 0 {
		t.Error("new without parens should have no args")
	}
}

func TestNewTarget(t *testing.T) {
	p := parse(t, "function F() { return new.target; }")
	fd := p.Body[0].(*ast.FuncDecl)
	ret := fd.Fn.Body[0].(*ast.Return)
	if _, ok := ret.Arg.(*ast.NewTarget); !ok {
		t.Error("expected new.target node")
	}
	parseErr(t, "var x = new.bogus;")
}

func TestArrowFunctions(t *testing.T) {
	e, err := ParseExpr("(a, b) => a + b")
	if err != nil {
		t.Fatal(err)
	}
	fn := e.(*ast.Func)
	if !fn.Arrow || len(fn.Params) != 2 {
		t.Fatalf("want 2-param arrow, got %#v", fn)
	}
	if _, ok := fn.Body[0].(*ast.Return); !ok {
		t.Error("expression arrow body should be a return")
	}

	e, err = ParseExpr("x => { return x; }")
	if err != nil {
		t.Fatal(err)
	}
	if !e.(*ast.Func).Arrow {
		t.Error("single-param arrow should parse")
	}

	e, err = ParseExpr("() => 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.(*ast.Func).Params) != 0 {
		t.Error("zero-param arrow")
	}
}

func TestParenNotArrow(t *testing.T) {
	e, err := ParseExpr("(a + b) * c")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*ast.Binary); !ok {
		t.Error("parenthesized expr should not be mistaken for arrow")
	}
}

func TestObjectLiterals(t *testing.T) {
	e, err := ParseExpr(`{ a: 1, "b c": 2, 3: 4, get x() { return 1; }, set x(v) { }, if: 5 }`)
	if err != nil {
		t.Fatal(err)
	}
	obj := e.(*ast.Object)
	if len(obj.Props) != 6 {
		t.Fatalf("props = %d, want 6", len(obj.Props))
	}
	if obj.Props[3].Kind != ast.PropGet || obj.Props[4].Kind != ast.PropSet {
		t.Error("getter/setter kinds wrong")
	}
	if obj.Props[5].Key != "if" {
		t.Error("keyword key should be allowed")
	}
}

func TestGetAsPlainKey(t *testing.T) {
	e, err := ParseExpr("{ get: 1, set: 2 }")
	if err != nil {
		t.Fatal(err)
	}
	obj := e.(*ast.Object)
	if obj.Props[0].Kind != ast.PropInit || obj.Props[0].Key != "get" {
		t.Error("`get: 1` should be a plain property")
	}
}

func TestControlFlowStatements(t *testing.T) {
	src := `
if (a) { b(); } else if (c) d(); else { e(); }
while (x) { x--; }
do { y++; } while (y < 10);
for (var i = 0; i < 10; i++) f(i);
for (;;) { break; }
for (var k in obj) g(k);
for (k in obj) g(k);
outer: for (var j = 0; j < 3; j++) { continue outer; }
switch (v) { case 1: a(); break; case 2: default: b(); }
try { f(); } catch (e) { g(e); } finally { h(); }
throw new Error("x");
`
	p := parse(t, src)
	if len(p.Body) != 11 {
		t.Fatalf("statements = %d, want 11", len(p.Body))
	}
	if _, ok := p.Body[5].(*ast.ForIn); !ok {
		t.Error("for-in with var")
	}
	if fi, ok := p.Body[6].(*ast.ForIn); !ok || fi.Decl {
		t.Error("for-in without var")
	}
}

func TestASI(t *testing.T) {
	p := parse(t, "var a = 1\nvar b = 2\na = b")
	if len(p.Body) != 3 {
		t.Fatalf("ASI should yield 3 statements, got %d", len(p.Body))
	}
	// Restricted production: `return` followed by newline returns undefined.
	p = parse(t, "function f() { return\n1; }")
	fd := p.Body[0].(*ast.FuncDecl)
	ret := fd.Fn.Body[0].(*ast.Return)
	if ret.Arg != nil {
		t.Error("return followed by newline should have no argument")
	}
	// A line continuation inside a string is no line break after the
	// token before it.
	p = parse(t, "function f() { return \"a\\\nb\"; }")
	if p.Body[0].(*ast.FuncDecl).Fn.Body[0].(*ast.Return).Arg == nil {
		t.Error("return before a string with a line continuation lost its argument")
	}
	parseErr(t, "var a = 1 var b = 2")
	// The same decisions on and after every boundary of the parser's
	// window of tokens, which keeps the token before the current one.
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString("a\n++b\nc = d" + strings.Repeat(" + d", i%5) + "\n")
	}
	if p := parse(t, b.String()); len(p.Body) != 120 {
		t.Errorf("ASI across the window yields %d statements, want 120", len(p.Body))
	}
}

func TestPostfixNoNewline(t *testing.T) {
	// a ++ across a newline is a syntax error per ASI restricted production
	// (a; ++b is the actual parse — with b missing here it must fail).
	p := parse(t, "a\n++b")
	if len(p.Body) != 2 {
		t.Fatalf("newline before ++ should split statements, got %d", len(p.Body))
	}
}

func TestTrailingCommaInArgsAndArrays(t *testing.T) {
	if _, err := ParseExpr("f(1, 2)"); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExpr("[1, 2, 3]")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.(*ast.Array).Elems) != 3 {
		t.Error("array elems")
	}
}

func TestSequenceExpression(t *testing.T) {
	e, err := ParseExpr("(a, b, c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.(*ast.Seq).Exprs) != 3 {
		t.Error("sequence exprs")
	}
}

// TestLookaheadPastTheWindow: a parameter list or a label chain longer than
// the parser's window of tokens parses.
func TestLookaheadPastTheWindow(t *testing.T) {
	var params, labels []string
	for i := 0; i < 20; i++ {
		params = append(params, fmt.Sprint("a", i))
		labels = append(labels, fmt.Sprint("L", i, ": "))
	}
	e, err := ParseExpr("(" + strings.Join(params, ", ") + ") => a19")
	if err != nil {
		t.Fatal(err)
	}
	if fn := e.(*ast.Func); !slices.Equal(fn.Params, params) {
		t.Errorf("params = %v, want %v", fn.Params, params)
	}
	parse(t, strings.Join(labels, "")+"for (;;) { continue L0; }")
}

func TestLabeledStatement(t *testing.T) {
	p := parse(t, "loop: while (true) { break loop; }")
	l := p.Body[0].(*ast.Labeled)
	if l.Label != "loop" {
		t.Errorf("label = %q", l.Label)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"var = 1;",
		"if (a { }",
		"function () {}",
		"1 = 2;",
		"x++ ++;",
		"switch (v) { default: a(); default: b(); }",
		"try { }",
		"a.;",
		"f(,);",
		"do { } while",
		"throw\n1;",
	}
	for _, src := range bad {
		parseErr(t, src)
	}

	// JavaScript's early errors on a jump with nowhere to go, with the
	// messages node gives each through vm.Script. A function body starts a
	// fresh context: its enclosing loops and labels are not its own.
	early := map[string]string{
		"while (x) {} break;":       "Illegal break statement",
		"continue;":                 "Illegal continue statement: no surrounding iteration statement",
		"L: { continue L; }":        "Illegal continue statement: 'L' does not denote an iteration statement",
		"L: while (x) { break M; }": "Undefined label 'M'",
		"L: { L: x; }":              "Label 'L' has already been declared",
		"console.log(1); return;":   "Illegal return statement",
		"L: while (x) { (function () { continue L; }); }": "Undefined label 'L'",
		"while (x) { var f = () => { break; }; }":         "Illegal break statement",
		"switch (x) { case 1: continue; }":                "Illegal continue statement: no surrounding iteration statement",
	}
	for src, want := range early {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}

	// The first error in source order, as the parser reaches it: node
	// reports `var = 1;\n"abc` at the `=`. A comment is read with the token
	// before it, so the unterminated one comes ahead of the missing `)`,
	// where node reports the `)`. A parameter list is a list of names, and
	// anything else before `=>` fails there.
	first := map[string]string{
		"var = 1;\n\"abc":       "1:5: expected identifier (at =)",
		"f(1;\n/* unterminated": "2:16: unterminated block comment",
		"(a, b+1) => a":         "1:10: expected ';' (at =>)",
		"((a)) => 1":            "1:7: expected ';' (at =>)",
	}
	for src, want := range first {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
	for _, src := range []string{
		"L: M: for (;;) { N: { break N; } if (x) continue M; break L; }",
		"switch (x) { case 1: break; } L: { break L; } L: ;",
		"while (x) { function f() { L: while (y) { return; } } }",
		"var o = { get p() { return 1; } }, g = () => { return; };",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestForInNoConfusionWithIn(t *testing.T) {
	// `in` is excluded from for-init expressions (the noIn flag), so the
	// initializer stops at x and the leftover `in` is a syntax error — the
	// same behaviour as real JavaScript engines. It must not crash.
	if _, err := Parse("for (var i = x in y; i < 2; i++) {}"); err == nil {
		t.Error("expected a parse error for `var i = x in y` inside for-init")
	}
	// An ordinary `in` operator inside parens is fine even in a for-init.
	if _, err := Parse("for (var i = (x in y); i < 2; i++) {}"); err != nil {
		t.Errorf("parenthesized in-operator should parse: %v", err)
	}
}

func TestDeeplyNested(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString("(1 + ")
	}
	b.WriteString("0")
	for i := 0; i < 50; i++ {
		b.WriteString(")")
	}
	if _, err := ParseExpr(b.String()); err != nil {
		t.Fatalf("deeply nested expression: %v", err)
	}
}

func TestPositionsRecorded(t *testing.T) {
	p := parse(t, "var x = 1;\nfunction f() { return 2; }")
	if p.Body[0].Position().Line != 1 {
		t.Error("first statement line")
	}
	if p.Body[1].Position().Line != 2 {
		t.Error("second statement line")
	}
}

func TestArrayElisions(t *testing.T) {
	cases := []struct {
		src   string
		holes []bool // per element: true = hole
	}{
		{"[,1]", []bool{true, false}},
		{"[1,,3]", []bool{false, true, false}},
		{"[1,,]", []bool{false, true}},
		{"[,]", []bool{true}},
		{"[1,]", []bool{false}},
		{"[,,]", []bool{true, true}},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		arr := e.(*ast.Array)
		if len(arr.Elems) != len(c.holes) {
			t.Errorf("%s: length %d, want %d", c.src, len(arr.Elems), len(c.holes))
			continue
		}
		for i, hole := range c.holes {
			if (arr.Elems[i] == nil) != hole {
				t.Errorf("%s: element %d hole=%v, want %v", c.src, i, arr.Elems[i] == nil, hole)
			}
		}
	}
}

// TestGuestNames: the program records every `$` identifier of its source, in
// every function and as whatever it names, and none from a string.
func TestGuestNames(t *testing.T) {
	prog, err := Parse(`$l: for (var $k in $o) { }
function $f($p, q) { var $v = o.$prop + { $key: 1 }.$key; return function () { return $free; }; }
try { } catch ($e) { } var s = "$str";`)
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Sorted(maps.Keys(prog.Guest))
	if want := []string{"$e", "$f", "$free", "$k", "$key", "$l", "$o", "$p", "$prop", "$v"}; !slices.Equal(got, want) {
		t.Errorf("Guest = %v, want %v", got, want)
	}
	if prog, _ := Parse(`var x = "$y";`); prog.Guest != nil {
		t.Errorf("a source without a $ identifier has the set %v, want nil", prog.Guest)
	}
}

// The ceiling on parsing a generated 2 000-statement program (72.7 KB): the
// tree it builds, measured at 1 110 192 bytes, plus 8 %. The parser pulls
// its tokens from a scanner into a window of 16; while it lexed the whole
// source into a token array first, the same parse cost 13 472 688 bytes.
const parseAllocBytes = 1_200_000

// TestParseAllocGate holds what a parse allocates: the ceiling above, and a
// program wrapped in an IIFE within 1 KB of the same program bare, so the
// lookahead that tells an arrow from a parenthesised expression does not
// grow with the source.
func TestParseAllocGate(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "var v%d = f(%d, (v%d + 1) * 2);\n", i, i, i)
	}
	plain := b.String()
	wrapped := "(function () {\n" + plain + "})();\n"
	bare, iife := parseBytes(t, plain), parseBytes(t, wrapped)
	t.Logf("%d-byte program: %d B; wrapped: %d B", len(plain), bare, iife)
	if bare > parseAllocBytes {
		t.Errorf("parsing the program allocated %d B, ceiling %d", bare, parseAllocBytes)
	}
	if iife > bare+1024 {
		t.Errorf("parsing it wrapped in an IIFE allocated %d B, %d more than bare", iife, iife-bare)
	}
}

// parseBytes reports what parsing src allocates: the least of eight tries.
func parseBytes(t *testing.T, src string) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for try := 0; try < 8; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
