package instrument

import (
	"strings"
	"testing"

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
	nm := &desugar.Namer{}
	// As internal/core pairs them: the complete-arguments sub-language
	// lowers user formals to arguments[i] before this pass sees them.
	desugar.Apply(prog, desugar.Options{ArgsFull: opts.Args == ArgsFull}, nm)
	anf.Normalize(prog)
	boxes.Box(prog)
	Apply(prog, opts)
	out := printer.Print(prog)
	if _, err := parser.Parse(out); err != nil {
		t.Fatalf("instrumented output does not reparse: %v\n%s", err, out)
	}
	return prog, out
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
		"$k.label",
		"var $lbl = -1, $k;",
		// A frame is data: the function and its receiver stand where Figure
		// 3 has a reenter thunk, built only at a capture site in capture
		// mode. Normal-mode calls allocate nothing. A declaration's frame
		// names it by SelfVar: f is the enclosing scope's, and reassignable.
		"$stack.push({ label: 1, locals: [x, a, $t1], fn: $self, self: this });",
		`a = $mode === "normal" ? g(x) : $k.fn.apply($k.self);`,
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
	if !strings.Contains(out, "$shadow.push({ label: 1,") {
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
// inside locals (mixed, full) or, when locals has no place for it, as the
// frame's fifth key (varargs).
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
			{ArgsNone, "locals: [a, b, x, $t1], fn: $self, self: this }", "$k.fn.apply($k.self)", "b = $l[1];"},
			{ArgsVarargs, "locals: [a, b, x, $t1], fn: $self, self: this, args: arguments }", "$k.fn.apply($k.self, $k.args)", "b = $l[1];"},
			{ArgsMixed, "locals: [a, b, arguments, x, $t1], fn: $self, self: this }", "$k.fn.apply($k.self)", "arguments = $l[2];"},
			{ArgsFull, "locals: [arguments, $t1, x, $t2, $t3], fn: $self, self: this }", "$k.fn.apply($k.self)", "arguments = $l[0];"},
		} {
			_, out := compile(t, src, Options{Strategy: strat, Args: tc.mode})
			for _, want := range []string{stack + ".push({ label: 1, " + tc.frame, ": " + tc.arm + ";", tc.restore} {
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
