package core_test

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
)

// nestingMsg is the message node's parser gives a source nested past its
// stack, and the one the parser's nesting bound refuses with.
const nestingMsg = "Maximum call stack size exceeded"

// nested is a source of n levels of one recursive production of the
// grammar: pre, then open n times, mid, close n times, and post.
type nested struct{ pre, open, mid, close, post string }

func (s nested) source(n int) string {
	return s.pre + strings.Repeat(s.open, n) + s.mid + strings.Repeat(s.close, n) + s.post
}

// js is the same source as a JavaScript expression, which builds it with
// String.prototype.repeat.
func (s nested) js(n int) string {
	q := strconv.Quote
	return fmt.Sprintf("%s + %s.repeat(%d) + %s + %s.repeat(%d) + %s", q(s.pre), q(s.open), n, q(s.mid), q(s.close), n, q(s.post))
}

// nestedProductions are every recursive production of the grammar.
var nestedProductions = map[string]nested{
	"array":       {"var a = ", "[", "", "]", ";"},
	"paren":       {"var a = ", "(", "1", ")", ";"},
	"block":       {"", "{", "", "}", ""},
	"object":      {"var a = ", "{a: ", "1", "}", ";"},
	"not":         {"var a = ", "!", "1", "", ";"},
	"minus":       {"var a = ", "- ", "1", "", ";"},
	"assign":      {"var a; ", "a = ", "1", "", ";"},
	"conditional": {"var x = 1; var a = ", "x ? ", "1", " : 1", ";"},
	"if":          {"", "if (1) ", ";", "", ""},
	"function":    {"", "function f() { ", "", "}", ""},
	"exponent":    {"var a = ", "2 ** ", "1", "", ";"},
	"new":         {"var a = ", "new ", "Object", "", ";"},
}

// TestNestingBound: a source nested past the parser's bound is a
// SyntaxError, raw, compiled and through eval, and not a Go stack overflow,
// which no recover can catch and which ends the process with every tenant in
// it. The test runs on a 64 MB stack, so that a production that stopped
// counting fails here and does not take a gigabyte first.
func TestNestingBound(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const n = 1_000_000
	opts := core.Defaults()
	opts.Eval = true
	for name, prod := range nestedProductions {
		began := time.Now()
		src := prod.source(n)
		_, rawErr := core.RunRaw(src, core.RunConfig{})
		_, compileErr := core.Compile(src, core.Defaults())
		for _, err := range []error{rawErr, compileErr} {
			var perr *parser.Error
			if !errors.As(err, &perr) || !strings.HasPrefix(perr.Msg, nestingMsg) {
				t.Errorf("%s: %v, want the parser's %q", name, err, nestingMsg)
			}
		}
		evalled := "try { eval(" + prod.js(n) + "); } catch (e) { console.log(e.name, e.message); }"
		raw, err := core.RunRaw(evalled, core.RunConfig{})
		if err != nil || !strings.HasPrefix(raw, "SyntaxError ") || !strings.Contains(raw, nestingMsg) {
			t.Errorf("%s: eval raw printed %q, %v", name, raw, err)
		}
		c, err := core.Compile(evalled, opts)
		if err != nil {
			t.Fatalf("%s: compiling the eval: %v", name, err)
		}
		run, buf := mustStart(t, c, core.BackendBytecode)
		pump(run, 0)
		if got := transcript(run, buf); !strings.HasPrefix(got, "SyntaxError ") || !strings.Contains(got, nestingMsg) {
			t.Errorf("%s: eval stopified printed %q", name, got)
		}
		if took := time.Since(began); took > 5*time.Second {
			t.Errorf("%s: the refusals took %v", name, took)
		}
	}
}

// TestNestingBoundRunsNodesDepth: what node runs, this runs. 2 000 levels
// of `[` run in node; here they run raw and stopified, on the same 64 MB
// stack, through every pass that recurses on the tree.
func TestNestingBoundRunsNodesDepth(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const n = 2000
	src := "var a = " + strings.Repeat("[", n) + "1" + strings.Repeat("]", n) + "; var d = 0; while (Array.isArray(a)) { a = a[0]; d++; } console.log(d, a);"
	want := strconv.Itoa(n) + " 1\n"
	if out, err := core.RunRaw(src, core.RunConfig{}); err != nil || out != want {
		t.Errorf("raw: %q, %v; want %q", out, err, want)
	}
	c, err := core.Compile(src, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range bothEngines {
		run, buf := mustStart(t, c, engine)
		pump(run, 0)
		if got := transcript(run, buf); got != want {
			t.Errorf("stopified on %s: %q, want %q", engine, got, want)
		}
	}
}

// TestNestingBoundAtRunTime: the run-time half. A native that re-enters
// itself — join over a nested array, through toString — nests on the Go
// stack as a call does, so it counts against the same 100 000-frame limit
// and a million levels end in the guest's RangeError, raw and stopified on
// both engines, and not in a Go stack overflow. A counted level takes about
// 1.2 KB of Go stack (54 000 levels fit in 64 MB, 55 000 do not), so the
// limit's 100 000 need about 123 MB: the test runs on a 256 MB stack.
func TestNestingBoundAtRunTime(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 20))
	const src = "var a = []; for (var i = 0; i < 1e6; i++) { a = [a]; } try { String(a); } catch (e) { console.log(e.name, e.message); }"
	const want = "RangeError " + nestingMsg + "\n"
	c, err := core.Compile(src, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range bothEngines {
		if out, err := core.RunRaw(src, core.RunConfig{Backend: engine}); err != nil || out != want {
			t.Errorf("raw on %s: %q, %v; want %q", engine, out, err, want)
		}
		run, buf := mustStart(t, c, engine)
		pump(run, 0)
		if got := transcript(run, buf); got != want {
			t.Errorf("stopified on %s: %q, want %q", engine, got, want)
		}
	}
}
