package supervisor

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// Preemption parity (ISSUE 5): a program chopped into many tiny quanta —
// preempted, requeued, and resumed over and over by the supervisor — must
// produce byte-identical output and the identical error to one unbounded
// run, whichever engine made that run. Preemption is supposed to be
// invisible to the guest; any divergence means a continuation capture or a
// frame restore corrupted program state.

type parityProgram struct {
	name    string
	src     string
	quantum uint64 // 0: the test's own, a few dozen statements
	args    string // arity sub-language; "": core.Defaults()'s, none
}

func (p parityProgram) opts() core.Opts {
	opts := core.Defaults()
	if p.args != "" {
		opts.Args = p.args
	}
	return opts
}

func (p parityProgram) quantumOr(def uint64) uint64 {
	if p.quantum != 0 {
		return p.quantum
	}
	return def
}

// parityPrograms covers the state a capture/restore cycle could corrupt:
// loop counters, closure captures, deep recursion, try/finally unwinding,
// uncaught errors, and cross-turn timer state.
var parityPrograms = []parityProgram{
	{name: "loops", src: `
var s = 0;
for (var i = 0; i < 3000; i++) { s = (s * 31 + i) % 1000003; }
var t = 0, j = 0;
while (j < 500) { t += j * j; j++; }
console.log(s, t);
`},
	{name: "closures", src: `
var fns = [];
function mk(i) { var n = i * 3; return function () { return n + i; }; }
for (var i = 0; i < 200; i++) { fns.push(mk(i)); }
var total = 0;
for (var k = 0; k < fns.length; k++) { total += fns[k](); }
console.log(total);
`},
	{name: "recursion", src: `
function ack(m, n) {
  if (m === 0) { return n + 1; }
  if (n === 0) { return ack(m - 1, 1); }
  return ack(m - 1, ack(m, n - 1));
}
console.log(ack(2, 6), ack(1, 40));
`},
	{name: "tryfinally", src: `
var log = [];
function risky(i) {
  try {
    if (i % 3 === 0) { throw new Error("e" + i); }
    return "ok" + i;
  } finally {
    log.push(i);
  }
}
var out = [];
for (var i = 0; i < 60; i++) {
  try { out.push(risky(i)); } catch (e) { out.push(e.message); }
}
console.log(out.join(","), log.length);
`},
	{name: "uncaught", src: `
var n = 0;
for (var i = 0; i < 800; i++) { n += i; }
console.log("before", n);
undefinedFunction(n);
console.log("after");
`},
	{name: "strings", src: `
var s = "";
for (var i = 0; i < 120; i++) { s += (i % 10); }
var o = {};
for (var j = 0; j < 50; j++) { o["k" + (j % 7)] = s.length + j; }
var ks = [];
for (var k in o) { ks.push(k + "=" + o[k]); }
console.log(s.length, ks.join(" "));
`},
	// Note what is deliberately absent: a program observing the
	// *interleaving* of timer callbacks with main-loop progress. Under
	// preemption a yielding main lets due timers run earlier than an
	// unbounded run would — that is scheduling made visible (the entire
	// point of yielding), not state corruption, so it is out of parity
	// scope. The timercb program instead preempts inside a callback and
	// demands the callback's own state survive.
	{name: "timercb", src: `
setTimeout(function () {
  var s = 0;
  for (var i = 0; i < 2000; i++) { s += i * 2; }
  console.log("cb", s);
}, 0);
`},
	// Quantum 1 pauses at every yield point there is, so captures land
	// inside the try block and the catch body while a return, a throw, a
	// break or a continue is about to leave through the finally, and inside
	// the finally block itself. There the instrumentation re-raises a
	// pending return on re-entry and nothing else (the paper's §3.1.1
	// covers only that case), so the block calls out, and so can be
	// captured, only when what is pending is a return or nothing.
	{name: "finallycapture", quantum: 1, src: `
function tick(x) { return x + 1; }
function leave(how, i) {
  var trail = "";
  for (var k = 0; k < 2; k++) {
    try {
      trail += tick(k);
      if (how === 0) { return trail + "r"; }
      if (how === 1) { throw new Error("t" + i); }
      if (how === 2) { break; }
      if (how === 3) { continue; }
      trail += "n";
    } catch (e) {
      trail += tick(k) + e.message;
      if (i === 1) { throw e; }
    } finally {
      if (how === 0 || how >= 4) { trail += "f" + tick(tick(k)); } else { trail += "f"; }
      if (how === 4) { return trail + "o"; }
    }
    trail += ";";
  }
  return trail;
}
var out = [];
for (var i = 0; i < 12; i++) {
  try { out.push(leave(i % 6, i)); } catch (e) { out.push("E" + e.message); }
}
console.log(out.join(" "));
`},
}

// argsedge: a capture at every yield point of functions that read, write,
// keep and forward their arguments, under each arity sub-language that
// carries arguments across a capture (internal/core's TestArgumentsMatrix is
// the whole matrix; this is its quantum-1 column through the scheduler's own
// re-arm cycle). Past a capture only what every such sub-language promises is
// observed: contents and length, not identity (varargs re-enters with a new
// object) and no property but the elements.
func init() {
	for _, mode := range []string{"varargs", "mixed", "full"} {
		parityPrograms = append(parityPrograms, parityProgram{name: "argsedge-" + mode, quantum: 1, args: mode, src: `
function id(v) { return v; }
function sum() { var s = 0; for (var i = 0; i < arguments.length; i++) { s += id(arguments[i]); } return s; }
function fwd(a, b) { arguments[1] = id(b) * 10; return sum.apply(null, arguments) + ":" + id(arguments.length) + ":" + arguments[5]; }
function kept(a) { var mine = arguments; id(0); return function () { return mine[0] + mine.length; }; }
function caught(a) { try { throw id(arguments[1]); } catch (e) { return e + id(arguments[0]) + arguments.length; } }
var k = kept(7, 8);
var out = [];
for (var i = 0; i < 6; i++) { out.push(fwd(i, i + 1, 100), caught("x", "y")); }
console.log(out.join(" "), k(), k() === k());
`})
	}
}

// unboundedRun executes p without any quantum.
func unboundedRun(t *testing.T, p parityProgram, backend string) (string, string) {
	t.Helper()
	out, err := core.RunSource(p.src, p.opts(), core.RunConfig{Backend: backend})
	return out, errString(err)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestPreemptionParitySupervisor runs every program under brutally small
// supervisor quanta (25 statements — hundreds of preemptions per program)
// on a 2-worker pool and compares against the unbounded run, made on the
// reference engine and on the serving one.
func TestPreemptionParitySupervisor(t *testing.T) {
	for _, reference := range []string{core.BackendTree, core.BackendBytecode} {
		for _, p := range parityPrograms {
			p := p
			t.Run(reference+"/"+p.name, func(t *testing.T) {
				wantOut, wantErr := unboundedRun(t, p, reference)
				s := New(Options{Workers: 2, QuantumSteps: p.quantumOr(25)})
				defer s.Close()
				submit := SubmitOptions{Source: p.src}
				if p.args != "" {
					submit.Compile = p.opts()
					submit.Compile.YieldIntervalMs = 0 // as Submit's own default has it
				}
				g, err := s.Submit(submit)
				if err != nil {
					t.Fatal(err)
				}
				res := g.Wait()
				if res.Output != wantOut {
					t.Errorf("output diverged under preemption:\n  quantum:   %q\n  unbounded: %q",
						res.Output, wantOut)
				}
				if got := errString(res.Err); got != wantErr {
					t.Errorf("error diverged under preemption: %q vs %q", got, wantErr)
				}
				if res.Err == nil && res.Preemptions < 5 {
					t.Errorf("only %d preemptions — quantum did not slice the run", res.Preemptions)
				}
			})
		}
	}
}

// TestPreemptionParityCoreQuantum drives the same re-arm cycle through the
// public core API — RunConfig.QuantumSteps/OnQuantum plus ArmQuantum and
// Pause/Resume across turns — without the supervisor, pinning the plumbing
// the supervisor is built on.
func TestPreemptionParityCoreQuantum(t *testing.T) {
	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		for _, p := range parityPrograms {
			p := p
			t.Run(backend+"/"+p.name, func(t *testing.T) {
				wantOut, wantErr := unboundedRun(t, p, backend)

				c, err := core.Compile(p.src, p.opts())
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				// RunConfig carries the initial quantum and hook; the hook
				// guards against firing during NewRun (prelude execution),
				// before the handle exists.
				var run *core.AsyncRun
				run, err = c.NewRun(core.RunConfig{
					Out:          &buf,
					Backend:      backend,
					QuantumSteps: p.quantumOr(20),
					OnQuantum: func() {
						if run != nil {
							run.Pause(nil)
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				// The prelude may have consumed the initial quantum (the
				// hook is one-shot); re-arm for $main.
				run.ArmQuantum(p.quantumOr(20))
				run.Run(nil)
				resumes := 0
				for {
					if run.Paused() {
						resumes++
						run.ArmQuantum(p.quantumOr(20))
						run.Resume()
					}
					if !run.Loop.RunOne() {
						if run.Paused() {
							continue
						}
						break
					}
					if run.Finished() {
						if _, e := run.Result(); e != nil {
							break
						}
					}
				}
				_, rerr := run.Result()
				if buf.String() != wantOut {
					t.Errorf("output diverged: %q vs %q", buf.String(), wantOut)
				}
				if got := errString(rerr); got != wantErr {
					t.Errorf("error diverged: %q vs %q", got, wantErr)
				}
				if rerr == nil && resumes < 10 {
					t.Errorf("only %d pause/resume cycles; quantum not engaging", resumes)
				}
			})
		}
	}
}
