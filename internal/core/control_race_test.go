package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/eventloop"
	"repro/internal/rt"
)

// External-control stress (ISSUE 5 satellite): the AsyncRun control surface
// — Pause, Resume, Kill, Paused, Finished, Result — is documented safe from
// any goroutine while another goroutine pumps the event loop. These tests
// hammer that surface under the race detector; they also pin liveness (a
// kill always lands, a pause/resume storm never wedges the run).

// stressProgram spins long enough that control operations land mid-flight
// but terminates on its own if nobody kills it.
const stressProgram = `
var s = 0;
for (var i = 0; i < 400000; i++) { s = (s + i) % 65521; }
console.log("end", s);
`

// pump drives the run like Wait but keeps servicing the loop while the
// program is paused (so a concurrent Resume always finds a consumer) until
// the program finishes or the deadline passes.
func pump(t *testing.T, run *AsyncRun, deadline time.Time) {
	t.Helper()
	for !run.Finished() && time.Now().Before(deadline) {
		if !run.Loop.RunOne() {
			// Paused (or momentarily idle): yield the CPU briefly and
			// re-check; a controller goroutine owns progress now.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func TestControlRacePauseResumeKill(t *testing.T) {
	run := compileStress(t)
	run.Run(nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch rng.Intn(5) {
			case 0:
				run.Pause(nil)
			case 1:
				run.Resume()
			case 2:
				run.Paused()
			case 3:
				run.Finished()
			case 4:
				run.Result()
			}
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	pumpUntil := time.Now().Add(150 * time.Millisecond)
	for !run.Finished() && time.Now().Before(pumpUntil) {
		if !run.Loop.RunOne() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	// End the storm with a kill; whatever state the run is in, it must
	// terminate.
	run.Kill(nil)
	close(stop)
	wg.Wait()
	// A Resume posted by the storm after the kill is harmless, but the
	// pump must drain until completion sticks.
	pump(t, run, deadline)
	if !run.Finished() {
		t.Fatal("run wedged: neither finished nor killable after control storm")
	}
	if _, err := run.Result(); err != nil && !errors.Is(err, rt.ErrKilled) {
		t.Fatalf("unexpected completion error: %v", err)
	}
}

// TestControlRaceKillLandsWhileRunning: Kill from another goroutine
// terminates a spinning program promptly, and the uncatchable reason is
// reported.
func TestControlRaceKillLandsWhileRunning(t *testing.T) {
	c, err := Compile(`
var i = 0;
while (true) { i = i + 1; }
`, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Tight quantum so the spin yields frequently even without a timer
	// estimator racing the wall clock.
	run.SetOnQuantum(func() { run.Pause(nil) })
	run.ArmQuantum(5000)
	run.Run(nil)

	reason := errors.New("evicted by test")
	go func() {
		time.Sleep(10 * time.Millisecond)
		run.Kill(reason)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for !run.Finished() && time.Now().Before(deadline) {
		if run.Paused() {
			run.ArmQuantum(5000)
			run.Resume()
		}
		if !run.Loop.RunOne() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	if !run.Finished() {
		t.Fatal("kill never landed on the spinning program")
	}
	if _, err := run.Result(); !errors.Is(err, reason) {
		t.Fatalf("err=%v, want the kill reason", err)
	}
}

// TestControlRacePausedKill: killing a parked program finalizes it
// synchronously from the controller goroutine.
func TestControlRacePausedKill(t *testing.T) {
	run := compileStress(t)
	run.Run(nil)
	parked := make(chan struct{})
	run.Pause(func() { close(parked) })
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-parked:
		default:
			if !run.Finished() && time.Now().Before(deadline) {
				run.Loop.RunOne()
				continue
			}
		}
		break
	}
	if run.Finished() {
		t.Skip("program completed before the pause landed")
	}
	done := make(chan struct{})
	go func() {
		run.Kill(nil) // controller goroutine, parked program
		close(done)
	}()
	<-done
	if !run.Finished() {
		t.Fatal("kill of a parked program did not finalize it")
	}
	if _, err := run.Result(); !errors.Is(err, rt.ErrKilled) {
		t.Fatalf("err=%v, want ErrKilled", err)
	}
}

// TestControlRaceKillPausedWithPendingTimer: Kill from a controller while
// the main chain is parked but an auxiliary timer callback still executes
// guest code on the pumping goroutine — the shape where a kill's
// synchronous finish must not touch execution state.
func TestControlRaceKillPausedWithPendingTimer(t *testing.T) {
	opts := Defaults()
	opts.YieldIntervalMs = 1
	c, err := Compile(`
setTimeout(function () {
  var w = 0;
  for (var i = 0; i < 200000; i++) { w += i; }
  console.log("cb", w);
}, 1);
var s = 0;
for (var i = 0; i < 400000; i++) { s += i; }
console.log("main", s);
`, opts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	run.Run(nil)
	// Pause the main chain, then keep pumping so the timer callback runs
	// while a second goroutine kills the paused program.
	run.Pause(nil)
	killed := make(chan struct{})
	go func() {
		time.Sleep(3 * time.Millisecond)
		run.Kill(nil)
		close(killed)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for !run.Finished() && time.Now().Before(deadline) {
		if !run.Loop.RunOne() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	<-killed
	if !run.Finished() {
		t.Fatal("kill did not finalize the paused program")
	}
}

// TestControlRacePollSeesPauseAndKill: under the approx estimator with δ =
// 100 ms on a clock that never moves, no yield is ever due, so the bytecode
// engine skips nearly every $suspend call of a call-heavy guest. A Pause and
// then a Kill from another goroutine must still stop it: nothing else would.
func TestControlRacePollSeesPauseAndKill(t *testing.T) {
	c, err := Compile(`
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
var s = 0;
while (true) { s = (s + fib(12)) % 1000; }
`, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	run.Run(nil)
	reason := errors.New("stopped by test")
	parked := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		run.Pause(func() { close(parked) })
		<-parked
		run.Resume()
		time.Sleep(5 * time.Millisecond)
		run.Kill(reason)
	}()
	pump(t, run, time.Now().Add(20*time.Second))
	if !run.Finished() {
		t.Fatal("the guest ran on past a pause and a kill")
	}
	if _, err := run.Result(); !errors.Is(err, reason) {
		t.Fatalf("err=%v, want the kill reason", err)
	}
	if run.RT.Yields == 0 {
		t.Fatal("the pause never landed at a yield point")
	}
}

func compileStress(t *testing.T) *AsyncRun {
	t.Helper()
	opts := Defaults()
	// A short yield interval gives the pause storm plenty of landing
	// sites even on the approx estimator.
	opts.YieldIntervalMs = 1
	c, err := Compile(stressProgram, opts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return run
}
