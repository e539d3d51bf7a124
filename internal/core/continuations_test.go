package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ast"
)

// contOpts builds a continuation-only configuration (no timer yields), so
// these tests exercise $C in isolation.
func contOpts(cont string) Opts {
	o := Defaults()
	o.Cont = cont
	o.Suspend = false
	o.YieldIntervalMs = 0
	return o
}

// TestContinuationEarlyExit uses $C as an escape continuation — the classic
// early exit from a deep search.
func TestContinuationEarlyExit(t *testing.T) {
	src := `
function findFirst(arr, pred) {
  return $C(function (k) {
    for (var i = 0; i < arr.length; i++) {
      if (pred(arr[i])) { k(arr[i]); }
    }
    return k(-1);
  });
}
var data = [3, 8, 12, 5, 40];
console.log(findFirst(data, function (x) { return x > 10; }));
console.log(findFirst(data, function (x) { return x > 100; }));`
	for _, cont := range []string{"checked", "exceptional", "eager"} {
		got, err := RunSource(src, contOpts(cont), cfgVirtual())
		if err != nil {
			t.Fatalf("%s: %v", cont, err)
		}
		if got != "12\n-1\n" {
			t.Errorf("%s: got %q", cont, got)
		}
	}
}

// TestContinuationMultiShot re-applies a saved continuation several times;
// frames are restored from immutable snapshots, so continuations are
// multi-shot (unlike the generator strawman's one-shot ones, §3).
func TestContinuationMultiShot(t *testing.T) {
	src := `
var saved = null;
var hits = 0;
function go() {
  var v = 10 + $C(function (k) { saved = k; return k(1); });
  hits = hits + 1;
  if (hits < 3) { saved(hits * 10); }
  return v;
}
console.log(go(), hits);`
	for _, cont := range []string{"checked", "exceptional", "eager"} {
		got, err := RunSource(src, contOpts(cont), cfgVirtual())
		if err != nil {
			t.Fatalf("%s: %v", cont, err)
		}
		// Third entry: v = 10 + 20 (saved(20) from hits==2), hits == 3.
		if got != "30 3\n" {
			t.Errorf("%s: got %q", cont, got)
		}
	}
}

// TestContinuationMultiShotPreempted re-applies a saved continuation on the
// bytecode engine while a countdown estimator preempts the program every few
// calls, on stacks deeper than a restore segment. Until $C runs, the runtime
// owns every frame: a restore returns the frames it pops to a pool, and a
// capture writes into the continuation it restored from. The saved
// continuation holds frames of both kinds, and it is re-entered three times,
// so a frame recycled, or a continuation overwritten, after $C shows here as
// an output that differs from the unpreempted run's.
func TestContinuationMultiShotPreempted(t *testing.T) {
	src := `
function deep(n, f) { if (n === 0) { return f(); } return deep(n - 1, f) + 1; }
var saved = null, hits = 0, trail = [];
function body() {
  var v = deep(40, function () { return $C(function (k) { saved = k; return k(1); }); });
  hits = hits + 1;
  trail.push(v + deep(30, function () { return hits; }));
  if (hits < 4) { saved(hits * 10); }
  return v;
}
console.log(deep(25, body), hits, trail.join(","));`
	for _, cont := range []string{"checked", "exceptional", "eager"} {
		want, err := RunSource(src, contOpts(cont), cfgVirtual())
		if err != nil {
			t.Fatalf("%s unpreempted: %v", cont, err)
		}
		c, err := Compile(src, hammer(cont))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cfg := cfgVirtual()
		cfg.Out = &buf
		run, err := c.NewRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.RunToCompletion(); err != nil {
			t.Fatalf("%s preempted: %v (printed %q)", cont, err, buf.String())
		}
		if buf.String() != want {
			t.Errorf("%s: preempted run printed %q, unpreempted %q", cont, buf.String(), want)
		}
		if run.RT.Yields < 20 {
			t.Errorf("%s: only %d yields; the countdown is not preempting", cont, run.RT.Yields)
		}
	}
}

// TestContinuationAcrossClosureState verifies boxed state stays shared when
// a continuation rewinds: the counter keeps counting from where it was,
// while control returns to the captured point.
func TestContinuationAcrossClosureState(t *testing.T) {
	src := `
function counter() { var n = 0; return function () { n = n + 1; return n; }; }
var tick = counter();
var once = false;
var v = $C(function (k) { return k(tick()); });
if (!once) {
  once = true;
  // v is 1 from the first pass; tick again through the same closure.
  console.log(v, tick());
}`
	got, err := RunSource(src, contOpts("checked"), cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != "1 2\n" {
		t.Errorf("got %q", got)
	}
}

// TestContinuationThroughCatch captures inside a catch clause and restores
// through it (§3.1.1's first case).
func TestContinuationThroughCatch(t *testing.T) {
	src := `
function risky() { throw new Error("bang"); }
function run() {
  try {
    risky();
  } catch (e) {
    var v = label(e.message);
    return v + "!";
  }
  return "no-throw";
}
function label(m) { return "caught-" + m; }
console.log(run());`
	o := contOpts("checked")
	o.Suspend = true
	o.Timer = "countdown"
	o.CountdownN = 2 // capture inside the catch body's call
	o.YieldIntervalMs = 1
	for _, cont := range []string{"checked", "exceptional", "eager"} {
		o.Cont = cont
		got, err := RunSource(src, o, cfgVirtual())
		if err != nil {
			t.Fatalf("%s: %v", cont, err)
		}
		if got != "caught-bang!\n" {
			t.Errorf("%s: got %q", cont, got)
		}
	}
}

// TestContinuationThroughFinally suspends inside a finalizer reached via
// return (§3.1.1's second case) — with f, the function holding the finally,
// compiled: the capture leaves its chunk through the finally block and the
// reinstate comes back into it.
func TestContinuationThroughFinally(t *testing.T) {
	src := `
function audit(x) { return x; }
function f() {
  try {
    return audit("value");
  } finally {
    audit("cleanup1");
    audit("cleanup2");
  }
}
console.log(f());`
	o := Defaults()
	o.Timer = "countdown"
	o.CountdownN = 3
	o.YieldIntervalMs = 1
	for _, cont := range []string{"checked", "exceptional", "eager"} {
		o.Cont = cont
		c, err := Compile(src, o)
		if err != nil {
			t.Fatalf("%s: %v", cont, err)
		}
		var out bytes.Buffer
		cfg := cfgVirtual()
		cfg.Out = &out
		run, err := c.NewRun(cfg)
		if err == nil {
			err = run.RunToCompletion()
		}
		if err != nil {
			t.Fatalf("%s: %v", cont, err)
		}
		if out.String() != "value\n" {
			t.Errorf("%s: got %q", cont, out.String())
		}
		var f *ast.Func
		ast.Walk(c.Prog, func(n ast.Node) bool {
			if fn, ok := n.(*ast.Func); ok && fn.Name == "f" {
				f = fn
			}
			return true
		})
		code := f.Code.Load()
		if code == nil || reflect.ValueOf(code).IsNil() || run.In.ChunkRuns() == 0 {
			t.Errorf("%s: f did not run as a chunk (published %v, %d chunk runs)", cont, code, run.In.ChunkRuns())
		}
	}
}

// TestSuspendCountsAreBounded sanity-checks that the approx estimator does
// not yield pathologically often on a virtual clock (velocity backoff).
func TestSuspendCountsAreBounded(t *testing.T) {
	src := `var s = 0; for (var i = 0; i < 5000; i++) { s += i; } console.log(s);`
	o := Defaults() // approx, δ=100ms
	c, err := Compile(src, o)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if run.RT.Yields > 50 {
		t.Errorf("approx estimator yielded %d times on a virtual clock", run.RT.Yields)
	}
}
