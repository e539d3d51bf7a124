package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/interp"
)

// TestClearedTimerLeavesTheLoop: clearTimeout removes the timer from the
// event loop, so a program that clears its only timer is done when its code
// is — the loop does not wait out the cleared timer's delay.
func TestClearedTimerLeavesTheLoop(t *testing.T) {
	const src = `var t = setTimeout(function () { console.log("fired"); }, 5000);
clearTimeout(t);
console.log("done");`
	c, err := core.Compile(src, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range bothEngines {
		t.Run(engine, func(t *testing.T) {
			clock := eventloop.NewVirtualClock()
			buf := &bytes.Buffer{}
			run, err := c.NewRun(core.RunConfig{Backend: engine, Clock: clock, Out: buf})
			if err != nil {
				t.Fatal(err)
			}
			run.Run(nil)
			run.Loop.RunOne() // $main, which yields nothing on a clock that stands still
			if !run.Finished() {
				t.Fatal("$main did not finish in one task")
			}
			if n := run.Loop.Len(); n != 0 {
				t.Fatalf("Loop.Len() = %d after clearTimeout, want 0", n)
			}
			if err := run.Wait(); err != nil || buf.String() != "done\n" {
				t.Fatalf("err=%v output=%q", err, buf.String())
			}
			if now := clock.Now(); now >= 5000 {
				t.Fatalf("clock reads %v ms after the run, want less than the cleared timer's 5000", now)
			}
		})
	}
	clock := eventloop.NewVirtualClock()
	if out, err := core.RunRaw(src, core.RunConfig{Clock: clock}); err != nil || out != "done\n" {
		t.Fatalf("raw: err=%v output=%q", err, out)
	}
	if now := clock.Now(); now >= 5000 {
		t.Fatalf("raw: clock reads %v ms after the run, want less than 5000", now)
	}
}

// TestPendingTimersChargeMemory: every pending timer is charged to the
// allocation meter, raw and stopified alike, so a guest cannot hold an
// unbounded timer queue under a memory budget.
func TestPendingTimersChargeMemory(t *testing.T) {
	const src = `function f(a, b) {}
for (var i = 0; i < 400000; i++) setTimeout(f, 1e9, i, i);
console.log("posted");`
	c, err := core.Compile(src, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range bothEngines {
		cfg := core.RunConfig{Backend: engine, Clock: eventloop.NewVirtualClock(), MemBudgetBytes: 1 << 20}
		run, err := c.NewRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run.Run(nil)
		for !run.Finished() && run.Loop.RunOne() {
		}
		if _, err := run.Result(); !errors.Is(err, interp.ErrMemLimit) {
			t.Errorf("%s stopified: err=%v after %d pending timers, want ErrMemLimit", engine, err, run.Loop.Len())
		}
		if _, err := core.RunRaw(src, cfg); !errors.Is(err, interp.ErrMemLimit) {
			t.Errorf("%s raw: err=%v, want ErrMemLimit", engine, err)
		}
	}
}

// TestTimersSurviveAPark parks a guest holding a few thousand pending
// timers with forwarded arguments, a third of them cleared before the park
// and more after it, and restores it on each engine from each engine. The
// cleared timers are not in the blob, the others keep their handles, their
// arguments and their order, a clearTimeout after the restore still finds
// its timer, and a new setTimeout continues the handle sequence.
func TestTimersSurviveAPark(t *testing.T) {
	const n = 3000
	src := fmt.Sprintf(`
var fired = [], bad = 0, h = 0, handles = [];
function cb(i, tag) {
  if (tag !== ":" + (i %% 7)) bad++;
  fired.push(i);
  h = (h * 31 + i) %% 1000003;
}
for (var i = 0; i < %d; i++) handles.push(setTimeout(cb, 1 + (i * 7919) %% 500, i, ":" + (i %% 7)));
for (var j = 0; j < handles.length; j += 3) clearTimeout(handles[j]);
console.log("armed");
var s = 0;
for (var k = 0; k < 200000; k++) { s = (s + k) %% 101; }
for (var j = 1; j < handles.length; j += 9) clearTimeout(handles[j]);
var next = setTimeout(function () {}, 0);
setTimeout(function () { console.log(fired.length, h, bad, handles[0], handles[%d], next); }, 1000);
`, n, n-1)

	// What the program prints, worked out here: the timers not cleared run
	// by due time, ties in post order. Every delay is at least 1 ms, so on a
	// clock that stands still none is due when the guest yields to the loop.
	var live []int
	for i := 0; i < n; i++ {
		if i%3 != 0 && i%9 != 1 {
			live = append(live, i)
		}
	}
	sort.SliceStable(live, func(a, b int) bool { return live[a]*7919%500 < live[b]*7919%500 })
	h := 0
	for _, i := range live {
		h = (h*31 + i) % 1000003
	}
	want := fmt.Sprintf("armed\n%d %d 0 1 %d %d\n", len(live), h, n, n+1)

	c, err := core.Compile(src, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	calm, buf := mustStart(t, c, core.BackendBytecode)
	pump(calm, 0)
	if got := transcript(calm, buf); got != want {
		t.Fatalf("unparked run printed %q, want %q", got, want)
	}
	for _, from := range bothEngines {
		for _, to := range bothEngines {
			t.Run(from+"-to-"+to, func(t *testing.T) {
				run, buf := mustStart(t, c, from)
				if !pump(run, calm.Steps()/2) || buf.String() != "armed\n" {
					t.Fatalf("parked having printed %q, want the park inside the spin loop", buf.String())
				}
				var handles []uint64
				for _, p := range run.Loop.Pending() {
					if p.Handle%3 == 1 {
						t.Fatalf("handle %d was cleared, yet it is pending", p.Handle)
					}
					handles = append(handles, p.Handle)
				}
				if len(handles) != n-n/3 {
					t.Fatalf("%d timers pending at the park, want %d", len(handles), n-n/3)
				}
				buf = &bytes.Buffer{}
				next, _, err := hop(run, config(to, buf, stepBudget))
				if err != nil {
					t.Fatal(err)
				}
				var restored []uint64
				for _, p := range next.Loop.Pending() {
					restored = append(restored, p.Handle)
				}
				if !slices.Equal(restored, handles) {
					t.Fatalf("restored loop holds %d timers, not the %d the source held in the same order", len(restored), len(handles))
				}
				pump(next, 0)
				if got := transcript(next, buf); got != want {
					t.Fatalf("restored run printed %q, want %q", got, want)
				}
			})
		}
	}
}
