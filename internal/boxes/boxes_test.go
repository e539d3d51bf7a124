package boxes

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/desugar"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/printer"
	"repro/internal/resolve"
)

func boxPipeline(t *testing.T, src string) (*ast.Program, string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nm := &desugar.Namer{}
	desugar.Apply(prog, desugar.Options{}, nm)
	anf.Normalize(prog)
	Box(prog)
	return prog, printer.Print(prog)
}

func runSrc(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	resolve.Program(prog)
	var buf bytes.Buffer
	in := interp.New(interp.Options{Out: &buf, Seed: 1})
	if err := in.RunProgram(prog); err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	return buf.String()
}

func TestBoxingPreservesSemantics(t *testing.T) {
	sources := []string{
		`function counter() { var n = 0; return function () { n = n + 1; return n; }; }
		 var c = counter(); c(); c(); console.log(c());`,
		`function f(start) { var x = start; function bump() { x = x + 1; } bump(); bump(); return x; }
		 console.log(f(10));`,
		`function make(a) { return function (b) { a = a + b; return a; }; }
		 var acc = make(100); acc(1); console.log(acc(2));`,
		`function twice(x) { function inner() { return x; } x = x * 2; return inner(); }
		 console.log(twice(5));`,
		`var shared = 0;
		 function f() { var local = 1; function g() { var local = 2; return local; } shared = g(); return local; }
		 console.log(f(), shared);`,
		// A declared function a nested function reassigns is boxed, its box
		// holding the function from entry, a parameter of its name included.
		`function f() { var a = g(); function g() { return 1; } function set() { g = function () { return 2; }; } set(); return a + g(); }
		 console.log(f());`,
		`function f(h) { function h() { return "decl"; } function set() { h = function () { return "set"; }; } var a = h(); set(); return a + h(); }
		 console.log(f("arg"));`,
	}
	for _, src := range sources {
		want := runSrc(t, src)
		_, boxed := boxPipeline(t, src)
		got := runSrc(t, boxed)
		if got != want {
			t.Errorf("boxing changed semantics:\n%s\nwant %q got %q\n--- boxed ---\n%s", src, want, got, boxed)
		}
	}
}

func TestBoxesOnlyWhatNeedsBoxing(t *testing.T) {
	// p is a parameter that is captured but never assigned: parameters are
	// bound before any capture point, so it needs no box. z is assigned but
	// never captured. x is assigned and captured: boxed. A captured var
	// like y is boxed even though its only write is the declaration,
	// because a capture can land between closure hoisting and the
	// initializer (see the prologue-allocation comment in boxScope).
	src := `
function f(p) {
  var x = 1;
  var y = 2;
  var z = 3;
  z = 4;
  function g() { x = x + y + p; return x; }
  return g() + z;
}
console.log(f(0));`
	_, out := boxPipeline(t, src)
	if !strings.Contains(out, "x.v") {
		t.Errorf("x should be boxed:\n%s", out)
	}
	if !strings.Contains(out, "y.v") {
		t.Errorf("y (captured, initialized declaration) should be boxed:\n%s", out)
	}
	if strings.Contains(out, "p.v") {
		t.Errorf("p (read-only captured parameter) should not be boxed:\n%s", out)
	}
	if strings.Contains(out, "z.v") {
		t.Errorf("z (uncaptured) should not be boxed:\n%s", out)
	}
}

func TestBoxedParamGetsEntryBox(t *testing.T) {
	src := `
function f(p) {
  function g() { p = p + 1; return p; }
  g();
  return p;
}
console.log(f(5));`
	_, out := boxPipeline(t, src)
	if !strings.Contains(out, "p = { v: p }") {
		t.Errorf("boxed parameter should be cell-allocated on entry:\n%s", out)
	}
	if got := runSrc(t, out); got != "6\n" {
		t.Errorf("boxed param semantics: %q", got)
	}
}

func TestBoxAllocationIsAtFunctionEntry(t *testing.T) {
	// The box for a variable declared late in the body must be allocated in
	// the prologue (a capture before the declaration would otherwise split
	// the closures from the restored code).
	src := `
function f() {
  function g() { return late; }
  g();
  var late = 1;
  late = 2;
  function h() { late = late + 1; }
  h();
  return late;
}
console.log(f());`
	prog, out := boxPipeline(t, src)
	fd := findFunc(prog, "f")
	if fd == nil {
		t.Fatalf("function f not found:\n%s", out)
	}
	first := printer.PrintStmt(fd.Body[0])
	if !strings.Contains(first, "{ v: undefined }") {
		t.Errorf("first statement of f should allocate the box, got:\n%s\nfull:\n%s", first, out)
	}
	if got := runSrc(t, out); got != "3\n" {
		t.Errorf("late-box semantics: %q", got)
	}
}

func TestShadowingRespectsScopes(t *testing.T) {
	src := `
function outer() {
  var v = 1;
  function mid() {
    var v = 10;
    function inner() { v = v + 1; return v; }
    inner();
    return v;
  }
  function bump() { v = v + 100; }
  bump();
  return mid() + v;
}
console.log(outer());`
	want := runSrc(t, src)
	_, out := boxPipeline(t, src)
	if got := runSrc(t, out); got != want {
		t.Errorf("shadowed boxing broke: want %q got %q\n%s", want, got, out)
	}
}

// TestShadowedNamesStayUnboxed covers the three places a boxed name can be
// rebound below its scope: a catch parameter (with a closure inside the catch
// body, which must see the parameter and not the box), a named function
// expression's own name, and an intermediate function scope. Each boxed name
// is a function's: the top level's are the global frame's, never boxed.
func TestShadowedNamesStayUnboxed(t *testing.T) {
	cases := []struct {
		name, src, want string
		has, lacks      []string
	}{
		{"catch-param",
			`function main() {
			   var e = 1; function g() { e = e + 1; } g();
			   var a, b;
			   try { throw 5; } catch (e) { var h = function () { return e; }; a = e; b = h(); }
			   console.log(a, b, e);
			 }
			 main();`,
			"5 5 2\n", []string{"e.v = e.v + 1", "a = e;", "return e;"}, nil},
		{"named-function-expression",
			`function main() {
			   var f = 1; function bump() { f = f + 1; } bump();
			   var g = function f(n) { if (n === 0) { return typeof f; } return f(n - 1); };
			   console.log(g(2), f);
			 }
			 main();`,
			"function 2\n", []string{"f.v = f.v + 1", "typeof f;", "return f($t3);"}, nil},
		{"middle-of-three",
			`function outer(a) {
			   function mid() {
			     var m = 0;
			     function inner() { var i = 5; i = i + 1; m = m + i + a; return m; }
			     inner(); return inner();
			   }
			   return mid();
			 }
			 console.log(outer(1));`,
			"14\n", []string{"var m = { v: undefined }", "m.v = "}, []string{"a.v", "i.v", "a = {"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runSrc(t, c.src); got != c.want {
				t.Fatalf("raw printed %q, want %q", got, c.want)
			}
			_, out := boxPipeline(t, c.src)
			if got := runSrc(t, out); got != c.want {
				t.Errorf("boxed printed %q, want %q\n%s", got, c.want, out)
			}
			for _, s := range c.has {
				if !strings.Contains(out, s) {
					t.Errorf("boxed output lacks %q:\n%s", s, out)
				}
			}
			for _, s := range c.lacks {
				if strings.Contains(out, s) {
					t.Errorf("boxed output contains %q:\n%s", s, out)
				}
			}
		})
	}
}

func findFunc(prog *ast.Program, name string) *ast.Func {
	var found *ast.Func
	ast.Walk(prog, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok && fn.Name == name {
			found = fn
			return false
		}
		return true
	})
	return found
}
