package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/interp"
)

// hammer configures Stopify to yield every few calls, maximizing
// capture/restore churn so correctness bugs cannot hide.
func hammer(cont string) Opts {
	o := Defaults()
	o.Cont = cont
	o.Timer = "countdown"
	o.CountdownN = 4
	o.YieldIntervalMs = 1
	return o
}

func cfgVirtual() RunConfig {
	return RunConfig{Clock: eventloop.NewVirtualClock(), Seed: 3}
}

func TestManyYieldsActuallyHappen(t *testing.T) {
	src := `var s = 0; for (var i = 0; i < 500; i++) { s += i; } console.log(s);`
	c, err := Compile(src, hammer("checked"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if run.RT.Yields < 50 {
		t.Errorf("expected many yields, got %d", run.RT.Yields)
	}
	if buf.String() != "124750\n" {
		t.Errorf("output = %q", buf.String())
	}
}

func TestConstructorStrategies(t *testing.T) {
	src := `
function Counter(start) { this.n = start; }
Counter.prototype.incr = function () { this.n++; return this.n; };
function Wrapper(inner) { this.inner = inner; this.tag = label(); }
function label() { return "w"; }
var c = new Counter(10);
c.incr(); c.incr();
var w = new Wrapper(c);
console.log(c.n, w.tag, w.inner === c, c instanceof Counter);`
	want, err := RunRaw(src, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctor := range []string{"direct", "wrapped"} {
		o := hammer("checked")
		o.Ctor = ctor
		got, err := RunSource(src, o, cfgVirtual())
		if err != nil {
			t.Fatalf("ctor=%s: %v", ctor, err)
		}
		if got != want {
			t.Errorf("ctor=%s: got %q want %q", ctor, got, want)
		}
	}
}

// TestGuestDollarNamesWrappedCtors runs the hygiene/temp-names row, and a
// guest's $nt beside the one a wrapped constructor declares, under the
// constructor strategy the conformance matrix does not vary, preempted
// every few calls.
func TestGuestDollarNamesWrappedCtors(t *testing.T) {
	row, err := os.ReadFile("testdata/conformance/hygiene/temp-names.js")
	if err != nil {
		t.Fatal(err)
	}
	src := string(row) + `
function K() { var $nt = "N"; var v = g(1); return v + $nt; }
console.log(K(), new K() instanceof K);`
	want, err := RunRaw(src, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	for _, cont := range []string{"checked", "exceptional", "eager"} {
		o := hammer(cont)
		o.Ctor = "wrapped"
		got, err := RunSource(src, o, cfgVirtual())
		if err != nil {
			t.Fatalf("cont=%s: %v", cont, err)
		}
		if got != want {
			t.Errorf("cont=%s: got %q want %q", cont, got, want)
		}
	}
}

func TestCaptureInsideConstructor(t *testing.T) {
	// The constructor calls a function while the yield hammer is running,
	// so continuations are captured with a partially initialized `this`.
	src := `
function helper(k) { return k * 2; }
function Thing(a) {
  this.x = a;
  this.y = helper(a);
  this.z = this.x + this.y;
}
var total = 0;
for (var i = 0; i < 20; i++) { total += new Thing(i).z; }
console.log(total);`
	want, err := RunRaw(src, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctor := range []string{"direct", "wrapped"} {
		for _, cont := range []string{"checked", "exceptional", "eager"} {
			o := hammer(cont)
			o.Ctor = ctor
			got, err := RunSource(src, o, cfgVirtual())
			if err != nil {
				t.Fatalf("ctor=%s cont=%s: %v", ctor, cont, err)
			}
			if got != want {
				t.Errorf("ctor=%s cont=%s: got %q want %q", ctor, cont, got, want)
			}
		}
	}
}

func TestImplicitsModes(t *testing.T) {
	src := `
var obj = { valueOf: function () { return tick(); } };
var ticks = 0;
function tick() { ticks++; return 21; }
console.log(obj + 21, obj * 2, ticks > 0);`
	want, err := RunRaw(src, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	o := hammer("checked")
	o.Implicits = "full"
	got, err := RunSource(src, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("implicits=full: got %q want %q", got, want)
	}
}

func TestImplicitsPlusConcat(t *testing.T) {
	src := `
var name = { toString: function () { return "world"; } };
console.log("hello " + name);`
	o := hammer("checked")
	o.Implicits = "plus"
	got, err := RunSource(src, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello world\n" {
		t.Errorf("got %q", got)
	}
}

func TestGettersMode(t *testing.T) {
	src := `
var reads = 0;
var o = {
  _v: 5,
  get v() { reads++; return this._v * 2; },
  set v(x) { this._v = x + 1; }
};
o.v = 9;
console.log(o.v, o._v, reads);`
	want, err := RunRaw(src, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	o := hammer("checked")
	o.Getters = true
	got, err := RunSource(src, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("getters: got %q want %q", got, want)
	}
}

func TestArgsModes(t *testing.T) {
	src := `
function varargs() {
  var t = 0;
  for (var i = 0; i < arguments.length; i++) { t += arguments[i]; }
  return t;
}
function optional(a, b) {
  if (b === undefined) { b = 100; }
  return a + b;
}
console.log(varargs(1, 2, 3), varargs(), optional(1), optional(1, 2));`
	want, err := RunRaw(src, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	// args="none" promises nothing about the arguments object (Figure 5's ✗
	// column): restoring re-applies formals positionally, so a function that
	// reads `arguments` across a capture may observe the formals only. The
	// varargs/mixed/full modes must preserve it exactly.
	for _, mode := range []string{"varargs", "mixed", "full"} {
		o := hammer("checked")
		o.Args = mode
		got, err := RunSource(src, o, cfgVirtual())
		if err != nil {
			t.Fatalf("args=%s: %v", mode, err)
		}
		if got != want {
			t.Errorf("args=%s: got %q want %q", mode, got, want)
		}
	}
	// A formals-only program is safe under args="none".
	plain := `function add3(a, b, c) { return a + b + c; } console.log(add3(1, 2, 3));`
	o := hammer("checked")
	o.Args = "none"
	got, err := RunSource(plain, o, cfgVirtual())
	if err != nil {
		t.Fatalf("args=none: %v", err)
	}
	if got != "6\n" {
		t.Errorf("args=none: got %q", got)
	}
}

func TestArgsFullAliasing(t *testing.T) {
	// Writing arguments[0] must be visible through the formal and vice
	// versa — only the full mode supports this (§4.2).
	src := `
function f(a) {
  arguments[0] = 99;
  var first = a;
  a = 5;
  return first + arguments[0];
}
console.log(f(1));`
	o := hammer("checked")
	o.Args = "full"
	got, err := RunSource(src, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != "104\n" {
		t.Errorf("aliasing: got %q want %q", got, "104\n")
	}
}

func TestFirstClassContinuationC(t *testing.T) {
	// The examples from §3 of the paper.
	src1 := `console.log(10 + $C(function (k) { return 0; }));`
	o := Defaults()
	o.Suspend = false
	o.YieldIntervalMs = 0
	got, err := RunSource(src1, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	// The program's own console.log never runs: C discards the addition.
	if got != "" {
		t.Errorf("C discard: got %q", got)
	}

	src2 := `
function go() { return 10 + $C(function (k) { return k(1) + 2; }); }
console.log(go());`
	got, err = RunSource(src2, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != "11\n" {
		t.Errorf("C restore: got %q want %q", got, "11\n")
	}
}

func TestPauseAndResume(t *testing.T) {
	src := `
var i = 0;
while (i < 100000) { i++; }
console.log("done", i);`
	o := Defaults()
	o.Timer = "countdown"
	o.CountdownN = 50
	o.YieldIntervalMs = 1
	c, err := Compile(src, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	run.Run(nil)
	paused := false
	run.Pause(func() { paused = true })
	// Pump until the pause lands.
	for i := 0; i < 1000 && !paused; i++ {
		if !run.Loop.RunOne() {
			break
		}
	}
	if !paused {
		t.Fatal("program did not pause")
	}
	if run.Finished() {
		t.Fatal("program should not have finished while paused")
	}
	if buf.Len() != 0 {
		t.Fatalf("no output expected while paused, got %q", buf.String())
	}
	run.Resume()
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "done 100000\n" {
		t.Errorf("after resume: %q", buf.String())
	}
}

func TestGracefulTerminationOfInfiniteLoop(t *testing.T) {
	// The motivating example (§1, Figure 17): an infinite loop that would
	// freeze a browser tab pauses cleanly under Stopify.
	src := `while (true) { }`
	o := Defaults()
	o.Timer = "countdown"
	o.CountdownN = 25
	o.YieldIntervalMs = 1
	c, err := Compile(src, o)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	run.Run(nil)
	stopped := false
	run.Pause(func() { stopped = true })
	for i := 0; i < 10000 && !stopped; i++ {
		if !run.Loop.RunOne() {
			break
		}
	}
	if !stopped {
		t.Fatal("infinite loop was not stopped")
	}
	if run.Finished() {
		t.Fatal("infinite loop cannot finish")
	}
}

func TestDeepStacks(t *testing.T) {
	// Recursion far beyond the engine's native stack limit (§5.2). The
	// engine allows 500 frames; the program needs 20000.
	src := `
function sum(n) { if (n === 0) { return 0; } return n + sum(n - 1); }
console.log(sum(20000));`
	eng := &engine.Profile{Name: "shallow", Speed: 1, MaxStack: 500}

	// Without deep stacks: RangeError.
	o := Defaults()
	o.YieldIntervalMs = 0
	o.Suspend = true
	_, err := RunSource(src, o, RunConfig{Engine: eng, Clock: eventloop.NewVirtualClock()})
	if err == nil || !strings.Contains(err.Error(), "RangeError") {
		t.Fatalf("expected RangeError without deep stacks, got %v", err)
	}

	// With deep stacks: completes.
	o.DeepStacks = true
	got, err := RunSource(src, o, RunConfig{Engine: eng, Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatalf("deep stacks: %v", err)
	}
	if got != "200010000\n" {
		t.Errorf("deep stacks result: %q", got)
	}
}

func TestDeepTailRecursion(t *testing.T) {
	// Tail calls never push frames (§3.2.2), so deep mode turns unbounded
	// tail recursion into a constant-space trampoline.
	src := `
function loop(n, acc) { if (n === 0) { return acc; } return loop(n - 1, acc + n); }
console.log(loop(50000, 0));`
	eng := &engine.Profile{Name: "shallow", Speed: 1, MaxStack: 400}
	o := Defaults()
	o.YieldIntervalMs = 0
	o.DeepStacks = true
	got, err := RunSource(src, o, RunConfig{Engine: eng, Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatalf("tail recursion: %v", err)
	}
	if got != "1250025000\n" {
		t.Errorf("tail recursion result: %q", got)
	}
}

func TestBreakpointsAndStepping(t *testing.T) {
	src := `var a = 1;
var b = 2;
var c = a + b;
console.log(c);`
	o := Defaults()
	o.Debug = true
	o.YieldIntervalMs = 0
	c, err := Compile(src, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	var hits []int
	run.RT.OnBreak(func(line int) { hits = append(hits, line) })
	run.RT.SetBreakpoint(3)
	run.Run(nil)
	run.Wait()
	if !run.RT.Paused() {
		t.Fatal("expected to stop at breakpoint")
	}
	if len(hits) != 1 || hits[0] != 3 {
		t.Fatalf("breakpoint hits = %v, want [3]", hits)
	}
	if buf.Len() != 0 {
		t.Fatalf("no output before line 3, got %q", buf.String())
	}
	// Single-step to line 4, then run to completion.
	run.RT.StepOnce(func(line int) { hits = append(hits, line) })
	run.Wait()
	if len(hits) != 2 || hits[1] != 4 {
		t.Fatalf("step hits = %v, want [3 4]", hits)
	}
	run.RT.ResumeFromBreak()
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "3\n" {
		t.Errorf("final output: %q", buf.String())
	}
}

func TestBlockingOperation(t *testing.T) {
	src := `
var x = blockingDouble(21);
console.log("got", x);`
	o := Defaults()
	o.YieldIntervalMs = 0
	c, err := Compile(src, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	run.RT.Blocking("blockingDouble", func(args []interp.Value, resume func(interp.Value)) {
		n := args[0].Num()
		// Simulate async completion on a timer.
		run.Loop.Post(func() { resume(interp.NumberValue(n * 2)) }, 30)
	})
	run.Run(nil)
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "got 42\n" {
		t.Errorf("blocking result: %q", buf.String())
	}
}

func TestEvalSupport(t *testing.T) {
	src := `
eval("makeAdder = function (n) { return function (m) { return n + m; }; };");
var add5 = makeAdder(5);
console.log(add5(37));`
	o := hammer("checked")
	o.Eval = true
	got, err := RunSource(src, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != "42\n" {
		t.Errorf("eval: got %q", got)
	}
}

func TestEvalDisabledThrows(t *testing.T) {
	src := `
var failed = false;
try { eval("1 + 1"); } catch (e) { failed = true; }
console.log(failed);`
	o := hammer("checked")
	o.Eval = false
	got, err := RunSource(src, o, cfgVirtual())
	if err != nil {
		t.Fatal(err)
	}
	if got != "true\n" {
		t.Errorf("eval disabled: got %q", got)
	}
}

func TestCodeGrowthMeasured(t *testing.T) {
	src := `function f(x) { return x + 1; } console.log(f(1));`
	c, err := Compile(src, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if c.CompiledBytes <= c.SourceBytes {
		t.Errorf("instrumentation should grow code: %d -> %d", c.SourceBytes, c.CompiledBytes)
	}
}

func TestUncaughtErrorPropagates(t *testing.T) {
	src := `throw new TypeError("top-level");`
	_, err := RunSource(src, hammer("checked"), cfgVirtual())
	if err == nil || !strings.Contains(err.Error(), "top-level") {
		t.Errorf("expected top-level error, got %v", err)
	}
}

// TestEarlyErrorsRefusedAlike: a jump with nowhere to go is a SyntaxError
// before anything runs, raw and stopified alike. `return` at top level used
// to print 1 and then fail raw, and print 1 and succeed stopified, where the
// program is the body of $main.
func TestEarlyErrorsRefusedAlike(t *testing.T) {
	for _, src := range []string{
		"console.log(1); while (x) {} break;",
		"console.log(1); L: { continue L; }",
		"console.log(1); L: while (x) { break M; }",
		"console.log(1); L: { L: x; }",
		"console.log(1); return;",
	} {
		out, rawErr := RunRaw(src, cfgVirtual())
		_, err := Compile(src, Defaults())
		if rawErr == nil || err == nil || out != "" || rawErr.Error() != err.Error() {
			t.Errorf("%s: raw printed %q, %v; stopified %v", src, out, rawErr, err)
		}
	}
}

func TestBadOptionsRejected(t *testing.T) {
	for _, o := range []Opts{
		{Cont: "bogus"},
		{Ctor: "bogus"},
		{Timer: "bogus"},
		{Implicits: "bogus"},
		{Args: "bogus"},
	} {
		if _, err := Compile("1;", o); err == nil {
			t.Errorf("options %+v should be rejected", o)
		}
	}
}

// TestReassignedSuspendIsCalled: a guest's $suspend is the guest's own
// global, not the runtime's yield point, which is an intrinsic no guest
// binding reaches: assigning it changes nothing the instrumentation calls, so
// raw and stopified print the same on either engine.
func TestReassignedSuspendIsCalled(t *testing.T) {
	src := `
var log = [];
function f(x) { return x + 1; }
$suspend = [].push.bind(log, 1);
var s = 0;
for (var i = 0; i < 10; i++) { s = f(s); }
console.log(s, log.length);`
	const want = "10 0\n"
	if out, err := RunRaw(src, cfgVirtual()); err != nil || out != want {
		t.Errorf("raw: printed %q (%v), want %q", out, err, want)
	}
	for _, backend := range []string{BackendTree, BackendBytecode} {
		cfg := cfgVirtual()
		cfg.Backend = backend
		out, err := RunSource(src, Defaults(), cfg)
		if err != nil || out != want {
			t.Errorf("%s: printed %q (%v), want %q", backend, out, err, want)
		}
	}
}
