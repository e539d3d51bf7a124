package instrument

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/boxes"
	"repro/internal/desugar"
	"repro/internal/parser"
	"repro/internal/printer"
)

func compile(t *testing.T, src string, opts Options) (*ast.Program, string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prepare(prog, opts)
	Apply(prog, opts)
	out := printer.Print(prog)
	if _, err := parser.Parse(out); err != nil {
		t.Fatalf("instrumented output does not reparse: %v\n%s", err, out)
	}
	return prog, out
}

// prepare runs the passes internal/core runs before this one.
func prepare(prog *ast.Program, opts Options) {
	// As internal/core pairs them: the complete-arguments sub-language
	// lowers user formals to arguments[i] before this pass sees them.
	desugar.Apply(prog, desugar.Options{ArgsFull: opts.Args == ArgsFull}, &desugar.Namer{})
	anf.Normalize(prog)
	boxes.Box(prog)
}

// contexts instruments prog as Apply does and returns each instrumented
// function's context, by function name.
func contexts(prog *ast.Program, opts Options) map[string]*fctx {
	var fns []*ast.Func
	ast.Walk(prog, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok {
			fns = append(fns, fn)
		}
		return true
	})
	out := map[string]*fctx{}
	for _, fn := range fns {
		if c := instrumentFunc(fn, opts, newNames(prog.Guest)); c != nil {
			out[fn.Name] = c
		}
	}
	return out
}

// TestSavedLocals pins what a frame saves: the locals live across some call
// site, and those kept whatever liveness finds.
func TestSavedLocals(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		opts      Options
		want      []string
	}{
		{"fib saves n and the first call's result", `function f(n) { if (n < 2) return n; return f(n - 1) + f(n - 2); }`,
			Options{}, []string{"n", "$t2"}},
		{"a loop-carried local written after the last site and read in the test",
			`function f(n) { var acc = 0; var i = 0; while (i < n) { var r = g(i); acc = acc + r; i = i + 1; } return acc; }`,
			Options{}, []string{"n", "acc", "i"}},
		{"a local read only at the top of the next iteration",
			`function f(n) { var acc = 0, prev = 0, i = 0; while (i < n) { acc = acc + prev; prev = i * 3; var x = g(i); i = i + 1; } return acc; }`,
			Options{}, []string{"n", "acc", "prev", "i"}},
		{"the old value of a site's target, read by the catch its call may throw to",
			`function f() { var r = 0; try { r = g(); } catch (e) { return r; } return r + 1; }`,
			Options{}, []string{"r", "$exn1"}},
		{"a site inside catch keeps the renamed catch parameter",
			`function f() { try { g(); } catch (e) { var r = h(); return r; } return 0; }`,
			Options{}, []string{"$exn1"}},
		{"a site inside finally keeps the completion locals",
			`function f() { try { return g(); } finally { h(); } }`,
			Options{}, []string{"$finret1", "$finv2"}},
		{"a local read only by the finally a return runs",
			`function f(x) { var tag = x + 1; try { return g(x); } finally { h(tag); } }`,
			Options{}, []string{"tag", "$finret1", "$finv2"}},
		{"a local only a nested function reads",
			`function f() { var x = 1; var k = function () { return x; }; g(k); return 0; }`,
			Options{}, []string{"x"}},
		{"mixed arity: arguments read, every formal kept",
			`function f(a, b) { var x = g(); return arguments[0] + x; }`,
			Options{Args: ArgsMixed}, []string{"a", "b", "arguments"}},
		{"full arity: arguments kept",
			`function f(a, b) { var x = g(); return a + x; }`,
			Options{Args: ArgsFull}, []string{"arguments"}},
		{"a local written before every site and never read after one",
			`function f(a) { var t = a * 2; var r = g(t); r = h(r); return r; }`,
			Options{}, nil},
		{"eval keeps every local",
			`function f(a) { var t = a * 2; var r = g(t); return eval("r"); }`,
			Options{}, []string{"a", "t", "r"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			prepare(prog, tc.opts)
			c := contexts(prog, tc.opts)["f"]
			if c == nil {
				t.Fatal("f was not instrumented")
			}
			if !slices.Equal(c.saved, tc.want) {
				t.Errorf("saved %q of locals %q, want %q", c.saved, c.locals, tc.want)
			}
		})
	}
}

// TestSavedLocalsNestedLoops: a loop nested d deep costs the analysis O(d)
// walks of its body, not 2^d. Each loop body here ends in a write the
// innermost loop's read must cross, so an analysis that solved each inner
// loop afresh on every pass of the one around it would walk the innermost
// body 2^40 times.
func TestSavedLocalsNestedLoops(t *testing.T) {
	const depth = 40
	src := "function f(c) { var v = 0; " + strings.Repeat("while (c) { ", depth) + "g(v); " +
		strings.Repeat("} v = 0; ", depth) + "return 0; }"
	done := make(chan []string, 1)
	go func() {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		prepare(prog, Options{})
		done <- contexts(prog, Options{})["f"].saved
	}()
	select {
	case saved := <-done:
		if !slices.Equal(saved, []string{"c", "v"}) {
			t.Errorf("saved %q, want [c v]", saved)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("analysing %d nested loops took over 10s", depth)
	}
}

// TestSavedLocalsCorpus: over every conformance program, under each arity
// sub-language, every instrumented function's saved list is an
// order-preserving subset of its locals list and keeps every name the
// instrumentation introduced.
func TestSavedLocalsCorpus(t *testing.T) {
	files, err := filepath.Glob("../core/testdata/conformance/*/*.js")
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance programs: %v", err)
	}
	n := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Strategy: Checked},
			{Strategy: Exceptional, Args: ArgsVarargs},
			{Strategy: Eager, Args: ArgsMixed, WrappedCtors: true},
			{Strategy: Checked, Args: ArgsFull},
		} {
			prog, err := parser.Parse(string(src))
			if err != nil {
				continue // a row that tests a parse error
			}
			prepare(prog, opts)
			for name, c := range contexts(prog, opts) {
				n++
				i := 0
				for _, l := range c.locals {
					if i < len(c.saved) && c.saved[i] == l {
						i++
					}
				}
				if i != len(c.saved) {
					t.Errorf("%s %+v: %s saves %q, not an ordered subset of %q", file, opts, name, c.saved, c.locals)
				}
				for _, x := range c.extra {
					if !slices.Contains(c.saved, x) {
						t.Errorf("%s %+v: %s saves %q without %s", file, opts, name, c.saved, x)
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no function was instrumented")
	}
}

func TestCheckedShape(t *testing.T) {
	_, out := compile(t, `
function f(x) {
  var a = g(x);
  return a + 1;
}`, Options{Strategy: Checked})
	for _, want := range []string{
		`$mode === "restore"`,
		"$rstack.pop()",
		"$lbl = $k[0];",
		"var $lbl = -1, $k;",
		// A frame is data: the function and its receiver stand where Figure
		// 3 has a reenter thunk, built only at a capture site in capture
		// mode. Normal-mode calls allocate nothing. A declaration's frame
		// names it by SelfVar: f is the enclosing scope's, and reassignable.
		// It saves no local: a, the only one read after the site, is the
		// site's own target.
		"$stack.push([1, $self, this]);",
		`a = $mode === "normal" ? g(x) : $k[1].apply($k[2]);`,
		`$mode === "capture"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("checked output missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"$shadow.push", "reenter", "=>"} {
		if strings.Contains(out, gone) {
			t.Errorf("checked output must not contain %q:\n%s", gone, out)
		}
	}
}

func TestExceptionalShape(t *testing.T) {
	_, out := compile(t, `function f(x) { var a = g(x); return a; }`, Options{Strategy: Exceptional})
	if !strings.Contains(out, "try {") || !strings.Contains(out, "$isCap(") {
		t.Errorf("exceptional sites need handlers:\n%s", out)
	}
	if !strings.Contains(out, "throw $e") {
		t.Errorf("exceptional handler must rethrow:\n%s", out)
	}
}

func TestEagerShape(t *testing.T) {
	_, out := compile(t, `function f(x) { var a = g(x); return a; }`, Options{Strategy: Eager})
	if !strings.Contains(out, "$shadow.push([1, $self, this]);") {
		t.Errorf("eager sites push eagerly:\n%s", out)
	}
	if !strings.Contains(out, "$shadow.pop()") {
		t.Errorf("eager sites must pop on return:\n%s", out)
	}
}

func TestTailCallsNotInstrumented(t *testing.T) {
	prog, _ := compile(t, `function f(n) { return g(n); }`, Options{Strategy: Checked})
	fn := findFunc(prog, "f")
	if fn == nil {
		t.Fatal("f not found")
	}
	// A tail-call-only function needs no machinery at all (§3.2.2).
	out := printer.PrintStmt(&ast.FuncDecl{Fn: fn})
	if strings.Contains(out, "$locals") {
		t.Errorf("tail-only function should be uninstrumented:\n%s", out)
	}
}

func TestLeafFunctionsPayNothing(t *testing.T) {
	prog, _ := compile(t, `function leaf(a, b) { return a * b + 1; }`, Options{Strategy: Checked})
	fn := findFunc(prog, "leaf")
	out := printer.PrintStmt(&ast.FuncDecl{Fn: fn})
	if strings.Contains(out, "$mode") {
		t.Errorf("leaf function should carry no instrumentation:\n%s", out)
	}
}

func TestLabelsAreContiguousPerFunction(t *testing.T) {
	prog, _ := compile(t, `
function f() {
  var a = g();
  if (a) { var b = g(); } else { var c = g(); }
  while (a) { var d = g(); a = a - 1; }
  return a;
}`, Options{Strategy: Checked})
	fn := findFunc(prog, "f")
	var labels []int
	ast.Walk(fn, func(n ast.Node) bool {
		if c, ok := n.(*ast.Call); ok && c.Label > 0 {
			labels = append(labels, c.Label)
		}
		if inner, ok := n.(*ast.Func); ok && inner != fn {
			return false
		}
		return true
	})
	if len(labels) < 4 {
		t.Fatalf("expected several labels, got %v", labels)
	}
	seen := map[int]bool{}
	max := 0
	for _, l := range labels {
		if seen[l] {
			t.Fatalf("duplicate label %d", l)
		}
		seen[l] = true
		if l > max {
			max = l
		}
	}
	for i := 1; i <= max; i++ {
		if !seen[i] {
			t.Fatalf("labels not dense: missing %d in %v", i, labels)
		}
	}
}

func TestWrappedCtorProtocol(t *testing.T) {
	_, out := compile(t, `
function F(x) {
  this.x = init(x);
  return 0;
}`, Options{Strategy: Checked, WrappedCtors: true})
	for _, want := range []string{"var $nt = new.target", "$nt !== undefined", "return this"} {
		if !strings.Contains(out, want) {
			t.Errorf("wrapped-ctor output missing %q:\n%s", want, out)
		}
	}
}

// TestArgsModesReenter pins, for every strategy and arity sub-language, what
// a frame stores and what a call site's restore arm re-applies: never a
// closure, and an arguments object only where the sub-language reifies one —
// among the saved locals, with every formal (mixed, full), or ahead of them,
// where re-entry passes it on (varargs).
func TestArgsModesReenter(t *testing.T) {
	src := `function f(a, b) { var x = g(a); return x + b; }`
	for _, strat := range []Strategy{Checked, Exceptional, Eager} {
		stack := "$stack"
		if strat == Eager {
			stack = "$shadow"
		}
		for _, tc := range []struct {
			mode    ArgsMode
			frame   string
			arm     string
			restore string // a prologue assignment that must be present
		}{
			{ArgsNone, "[1, $self, this, b]", "$k[1].apply($k[2])", "b = $k[3];"},
			{ArgsVarargs, "[1, $self, this, arguments, b]", "$k[1].apply($k[2], $k[3])", "b = $k[4];"},
			{ArgsMixed, "[1, $self, this, a, b, arguments]", "$k[1].apply($k[2])", "arguments = $k[5];"},
			{ArgsFull, "[1, $self, this, arguments]", "$k[1].apply($k[2])", "arguments = $k[3];"},
		} {
			_, out := compile(t, src, Options{Strategy: strat, Args: tc.mode})
			for _, want := range []string{stack + ".push(" + tc.frame + ");", ": " + tc.arm + ";", tc.restore} {
				if !strings.Contains(out, want) {
					t.Errorf("%v/args=%d: output missing %q:\n%s", strat, tc.mode, want, out)
				}
			}
			for _, gone := range []string{"reenter", "=>", ".call("} {
				if strings.Contains(out, gone) {
					t.Errorf("%v/args=%d: output must not contain %q:\n%s", strat, tc.mode, gone, out)
				}
			}
		}
	}
}

func TestCatchReentryShape(t *testing.T) {
	_, out := compile(t, `
function f() {
  try {
    risky();
  } catch (e) {
    var r = recover(e);
    return r;
  }
  return 0;
}`, Options{Strategy: Checked})
	if !strings.Contains(out, "$isSig($ct)") {
		t.Errorf("catch must rethrow runtime signals:\n%s", out)
	}
	if !strings.Contains(out, "throw $exn") {
		t.Errorf("restore must re-enter catch via rethrow:\n%s", out)
	}
}

func TestFinallyReturnBookkeeping(t *testing.T) {
	_, out := compile(t, `
function f() {
  try {
    return work();
  } finally {
    var c = cleanup();
  }
}`, Options{Strategy: Checked})
	if !strings.Contains(out, "$finret") || !strings.Contains(out, "$finv") {
		t.Errorf("try/finally needs completion bookkeeping:\n%s", out)
	}
}

func TestStrategyString(t *testing.T) {
	if Checked.String() != "checked" || Exceptional.String() != "exceptional" || Eager.String() != "eager" {
		t.Error("Strategy.String")
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

// TestRewriteLists: the pre-passes' one walk offers each statement of each
// list once, outermost first; stays out of functions; wraps a lone child
// that became several statements in a block; and prunes where the callback
// says so. renameCatch, the one pre-pass that orders itself, numbers a
// try block's own catches before the try's.
func TestRewriteLists(t *testing.T) {
	// name is what a row's callback calls a statement: an expression
	// statement by its text, anything else by its kind.
	name := func(s ast.Stmt) string {
		if es, ok := s.(*ast.ExprStmt); ok {
			return strings.TrimSuffix(printer.Print(&ast.Program{Body: []ast.Stmt{es}}), ";\n")
		}
		return strings.TrimPrefix(fmt.Sprintf("%T", s), "*ast.")
	}
	// shape shows where the blocks are, which the printer does not: it
	// braces every loop body.
	var shape func(ast.Stmt) string
	shapes := func(body []ast.Stmt) string {
		var parts []string
		for _, s := range body {
			parts = append(parts, shape(s))
		}
		return strings.Join(parts, "; ")
	}
	shape = func(s ast.Stmt) string {
		switch n := s.(type) {
		case *ast.Block:
			return "{" + shapes(n.Body) + "}"
		case *ast.If:
			if n.Alt == nil {
				return "if " + shape(n.Cons)
			}
			return "if " + shape(n.Cons) + " else " + shape(n.Alt)
		case *ast.While:
			return "while " + shape(n.Body)
		case *ast.Labeled:
			return n.Label + ": " + shape(n.Body)
		}
		return name(s)
	}
	for _, tc := range []struct {
		name, body string
		// expand is the row's callback, given what records a visit.
		expand func(visit func(ast.Stmt)) func(ast.Stmt) ([]ast.Stmt, bool)
		visits []string // nil: not checked
		want   string   // the rewritten body; "": not checked
	}{
		{"each list position once, outermost first, no function entered",
			`a; if (t) { b; } else c; while (t) d; L: { e; } try { g; } catch (x) { h; } finally { i; }
			 var v = function () { inner; }; function decl() { inner; }`,
			func(visit func(ast.Stmt)) func(ast.Stmt) ([]ast.Stmt, bool) {
				return func(s ast.Stmt) ([]ast.Stmt, bool) { visit(s); return nil, true }
			},
			[]string{"a", "If", "b", "c", "While", "d", "Labeled", "e", "Try", "g", "h", "i", "VarDecl", "FuncDecl"}, ""},
		{"a lone child that becomes several statements, or none, becomes a block",
			`if (t) a; else b; while (t) c; L: d; { e; }`,
			func(visit func(ast.Stmt)) func(ast.Stmt) ([]ast.Stmt, bool) {
				return func(s ast.Stmt) ([]ast.Stmt, bool) {
					switch name(s) {
					case "a", "d", "e":
						return []ast.Stmt{s, ast.ExprOf(ast.Id(name(s) + "2"))}, false
					case "b":
						return []ast.Stmt{}, false
					case "c":
						return []ast.Stmt{ast.ExprOf(ast.Id("c2"))}, false
					}
					return nil, true
				}
			},
			nil, "if {a; a2} else {}; while c2; L: {d; d2}; {e; e2}"},
		{"descend false prunes, and what replaced a statement is not offered again",
			`if (t) { a; } b; while (t) { c; }`,
			func(visit func(ast.Stmt)) func(ast.Stmt) ([]ast.Stmt, bool) {
				return func(s ast.Stmt) ([]ast.Stmt, bool) {
					visit(s)
					switch s.(type) {
					case *ast.If:
						return nil, false
					case *ast.While:
						return []ast.Stmt{ast.ExprOf(ast.Id("w")), s}, true
					}
					return nil, true
				}
			},
			[]string{"If", "b", "While", "c"}, "if {a}; b; w; while {c}"},
	} {
		prog, err := parser.Parse("function f() {" + tc.body + "}")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fn := prog.Body[0].(*ast.FuncDecl).Fn
		var visits []string
		fn.Body = rewriteLists(fn.Body, tc.expand(func(s ast.Stmt) { visits = append(visits, name(s)) }))
		if tc.visits != nil && !slices.Equal(visits, tc.visits) {
			t.Errorf("%s: visited %q, want %q", tc.name, visits, tc.visits)
		}
		if got := shapes(fn.Body); tc.want != "" && got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct{ src, want string }{
		{`try { try { g(); } catch (a) { h(a); } } catch (b) { k(b); }`, "a=$exn1 b=$exn2"},
		{`try { g(); } catch (a) { try { h(a); } catch (b) { k(b); } }`, "a=$exn1 b=$exn2"},
		{`try { g(); } catch (a) { k(a); } finally { try { h(); } catch (b) { k(b); } }`, "a=$exn1 b=$exn2"},
	} {
		prog, err := parser.Parse("function f() {" + tc.src + "}")
		if err != nil {
			t.Fatal(err)
		}
		var old []string
		ast.Walk(prog, func(n ast.Node) bool {
			if tr, ok := n.(*ast.Try); ok {
				old = append(old, tr.CatchParam)
			}
			return true
		})
		c := &fctx{names: newNames(nil)}
		fn := prog.Body[0].(*ast.FuncDecl).Fn
		fn.Body = rewriteLists(fn.Body, c.renameCatch)
		var got []string
		i := 0
		ast.Walk(prog, func(n ast.Node) bool {
			if tr, ok := n.(*ast.Try); ok {
				got = append(got, old[i]+"="+tr.CatchParam)
				i++
			}
			return true
		})
		slices.Sort(got)
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("%s: catch parameters %s, want %s", tc.src, s, tc.want)
		}
	}
}
