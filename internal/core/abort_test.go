package core_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/rt"
)

// TestAbortRunsNoFinally is interp's test of the same name one level up, on
// instrumented code: a guest ended from outside — by its step budget, by its
// memory budget, by a kill — runs none of the finally blocks it was inside,
// on either engine. Before the rule, a killed guest and one whose budget had
// refused an allocation ran them all, and the block that then looped forever
// had swallowed the abort by its first capture — a capture is a return, and
// an abrupt finally wins. (The step budgets here bound that failure.)
func TestAbortRunsNoFinally(t *testing.T) {
	guest := func(body string) string {
		return `var n = 0, keep = [];
function f() {
  try { try { ` + body + ` } finally { console.log("inner finally ran"); } }
  catch (e) { console.log("caught", e); }
  finally { console.log("outer finally ran"); for (;;) {} }
}
f();
console.log("guest went on");`
	}
	for _, tc := range []struct {
		name, body string
		cfg        core.RunConfig
		kill       bool
		want       error
	}{
		{name: "step-budget", body: `for (;;) { n++; }`, cfg: core.RunConfig{MaxSteps: 20_000}, want: interp.ErrStepBudget},
		{name: "mem-limit", body: `for (;;) { keep.push(new Array(1000)); }`, cfg: core.RunConfig{MemBudgetBytes: 1 << 20, MaxSteps: 300_000}, want: interp.ErrMemLimit},
		{name: "kill", body: `for (;;) { n++; }`, cfg: core.RunConfig{QuantumSteps: 5_000, MaxSteps: 1_000_000}, kill: true, want: rt.ErrKilled},
	} {
		c, err := core.Compile(guest(tc.body), core.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range bothEngines {
			var out bytes.Buffer
			cfg := tc.cfg
			cfg.Backend, cfg.Out, cfg.Clock = backend, &out, eventloop.NewVirtualClock()
			run, err := c.NewRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.kill {
				run.SetOnQuantum(func() { run.Kill(nil) })
			}
			if err := run.RunToCompletion(); !errors.Is(err, tc.want) || out.String() != "" {
				t.Errorf("%s/%s: err %v, printed %q; want %v and nothing", tc.name, backend, err, out.String(), tc.want)
			}
		}
	}
}

// TestQuantumHookFromRunConfig is the one run whose quantum and hook are
// given to NewRun, as a scheduler that owns the realm from its first
// statement does; every other test installs them through start and pump. The
// hook is one-shot, and a quantum of one statement is spent by the runtime
// prelude inside NewRun, before the handle exists: the hook guards on the
// handle, fires there once and not again until the owner re-arms, for $main
// and at every pause.
func TestQuantumHookFromRunConfig(t *testing.T) {
	p := corpusProgram(t, "parity/loops")
	c, err := core.Compile(p.src, p.needs)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range bothEngines {
		var run *core.AsyncRun
		buf, fired := &bytes.Buffer{}, 0
		cfg := config(engine, buf, stepBudget)
		cfg.QuantumSteps = 1
		cfg.OnQuantum = func() {
			fired++
			if run != nil {
				run.Pause(nil)
			}
		}
		if run, err = c.NewRun(cfg); err != nil {
			t.Fatal(err)
		}
		inPrelude, pauses := fired, 0
		for pump(run, 20) {
			pauses++
		}
		// The last firing may find the program at its end, with no yield
		// point left to pause at.
		after := fired - inPrelude
		if got := transcript(run, buf); got != p.want || inPrelude != 1 || pauses < 10 || after != pauses && after != pauses+1 {
			t.Errorf("%s: printed %q; the hook fired %d times inside NewRun and %d after, for %d pauses; want %q, one firing inside, and a pause for each after",
				engine, got, inPrelude, after, pauses, p.want)
		}
	}
}
