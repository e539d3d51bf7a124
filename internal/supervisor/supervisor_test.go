package supervisor

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/rt"
)

// guestSrc builds a small CPU-bound guest whose output depends on seed, so
// cross-guest state bleed would be visible in the asserted output.
func guestSrc(seed int) string {
	return fmt.Sprintf(`
var s = %d;
for (var i = 0; i < 400; i++) { s = (s + i * 7) %% 99991; }
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log("g%d", s, fib(10));
`, seed, seed)
}

// guestWant computes guestSrc's expected output host-side.
func guestWant(seed int) string {
	s := seed
	for i := 0; i < 400; i++ {
		s = (s + i*7) % 99991
	}
	var fib func(int) int
	fib = func(n int) int {
		if n < 2 {
			return n
		}
		return fib(n-1) + fib(n-2)
	}
	return fmt.Sprintf("g%d %d %d\n", seed, s, fib(10))
}

func TestSingleGuestCompletes(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 300})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: guestSrc(1)})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("guest failed: %v", res.Err)
	}
	if res.Output != guestWant(1) {
		t.Fatalf("output %q, want %q", res.Output, guestWant(1))
	}
	if res.Quanta < 2 || res.Preemptions < 1 {
		t.Errorf("expected a multi-quantum run with preemptions, got quanta=%d preemptions=%d",
			res.Quanta, res.Preemptions)
	}
	if res.Steps == 0 {
		t.Error("steps not recorded")
	}
}

// TestThousandGuestsFourWorkers is the acceptance demo: 1,000 concurrent
// guests on a 4-worker pool, round-robin preempted, all completing with
// byte-exact outputs, with a misbehaving infinite-loop guest killed at its
// deadline without affecting any neighbor, and a bounded scheduling-latency
// P99.
func TestThousandGuestsFourWorkers(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	s := New(Options{Workers: 4, MaxPending: n + 10, QuantumSteps: 1000})
	defer s.Close()

	// One hostile tenant: an infinite loop with a deadline. It is admitted
	// in the middle of the fleet so its kill happens while neighbors run.
	hostileAt := n / 2
	var hostile *Guest

	guests := make([]*Guest, 0, n)
	for i := 0; i < n; i++ {
		if i == hostileAt {
			pol := Policy{WallDeadline: 300 * time.Millisecond}
			h, err := s.Submit(SubmitOptions{Source: `while (true) { var x = 1; }`, Policy: &pol})
			if err != nil {
				t.Fatal(err)
			}
			hostile = h
		}
		g, err := s.Submit(SubmitOptions{Source: guestSrc(i)})
		if err != nil {
			t.Fatal(err)
		}
		guests = append(guests, g)
	}

	for i, g := range guests {
		res := g.Wait()
		if res.Err != nil {
			t.Fatalf("guest %d failed: %v", i, res.Err)
		}
		if want := guestWant(i); res.Output != want {
			t.Fatalf("guest %d output %q, want %q", i, res.Output, want)
		}
	}
	hres := hostile.Wait()
	if !errors.Is(hres.Err, ErrDeadline) {
		t.Fatalf("hostile guest: err=%v, want ErrDeadline", hres.Err)
	}

	m := s.Metrics()
	if m.Completed != uint64(n) || m.Killed != 1 {
		t.Errorf("metrics completed=%d killed=%d, want %d/1", m.Completed, m.Killed, n)
	}
	if m.Preemptions == 0 {
		t.Error("no preemptions recorded — quanta are not landing")
	}
	// No guest starves: bounded P99 scheduling latency. The bound is
	// deliberately generous (shared CI machines), but a starved guest
	// would wait for the whole fleet — tens of seconds — not this.
	if m.SchedLatency.P99 > 5000 {
		t.Errorf("P99 scheduling latency %.1fms exceeds bound", m.SchedLatency.P99)
	}
	t.Logf("n=%d sched P50=%.2fms P99=%.2fms max=%.2fms; %d preemptions, %d steps",
		n, m.SchedLatency.P50, m.SchedLatency.P99, m.SchedLatency.Max,
		m.Preemptions, m.StepsTotal)
}

func TestOutputCapKillsGuest(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 500})
	defer s.Close()
	pol := Policy{MaxOutputBytes: 256}
	g, err := s.Submit(SubmitOptions{
		Source: `while (true) { console.log("spam spam spam spam"); }`,
		Policy: &pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Wait()
	if !errors.Is(res.Err, ErrOutputLimit) {
		t.Fatalf("err=%v, want ErrOutputLimit", res.Err)
	}
	if !res.Truncated || len(res.Output) != 256 {
		t.Fatalf("output not truncated at cap: len=%d truncated=%v", len(res.Output), res.Truncated)
	}
}

func TestStepBudgetKillsGuest(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 500})
	defer s.Close()
	pol := Policy{MaxTotalSteps: 5000}
	g, err := s.Submit(SubmitOptions{
		Source: `var i = 0; while (true) { i++; }`,
		Policy: &pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Wait()
	if !errors.Is(res.Err, interp.ErrStepBudget) {
		t.Fatalf("err=%v, want ErrStepBudget", res.Err)
	}
	// The budget is enforced across resumes: the guest was preempted at
	// least once before the cumulative counter tripped.
	if res.Quanta < 2 {
		t.Errorf("budget tripped within one quantum (quanta=%d); re-arming untested", res.Quanta)
	}
}

func TestExternalKill(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 200})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: `while (true) { var x = 1; }`})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it start spinning
	g.Kill(nil)
	res := g.Wait()
	if !errors.Is(res.Err, rt.ErrKilled) {
		t.Fatalf("err=%v, want ErrKilled", res.Err)
	}

	// Killing a guest that never got a worker (paused first) finalizes
	// immediately.
	g2, err := s.Submit(SubmitOptions{Source: guestSrc(7)})
	if err != nil {
		t.Fatal(err)
	}
	g2.Pause()
	custom := errors.New("evicted")
	g2.Kill(custom)
	res2 := g2.Wait()
	if !errors.Is(res2.Err, custom) {
		t.Fatalf("err=%v, want custom kill reason", res2.Err)
	}
}

func TestPauseResume(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 200})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: `
var n = 0;
for (var i = 0; i < 400000; i++) { n += i; }
console.log("done", n);
`})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	g.Pause()
	// Wait for the pause to land (the guest parks at its next yield).
	deadline := time.Now().Add(2 * time.Second)
	for g.State() != StatePaused && g.State() != StateDone && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := g.State(); st == StateDone {
		t.Skip("guest finished before the pause landed; timing too tight on this host")
	} else if st != StatePaused {
		t.Fatalf("state=%v, want paused", st)
	}
	stepsAtPause := g.Inspect().Steps
	time.Sleep(30 * time.Millisecond)
	if now := g.Inspect().Steps; now != stepsAtPause {
		t.Fatalf("paused guest advanced: %d -> %d", stepsAtPause, now)
	}
	g.Resume()
	res := g.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !strings.HasPrefix(res.Output, "done ") {
		t.Fatalf("output %q", res.Output)
	}
}

func TestBackpressure(t *testing.T) {
	s := New(Options{Workers: 1, MaxPending: 2, QuantumSteps: 200})
	defer s.Close()
	// Two slow guests fill the admission bound.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(SubmitOptions{
			Source: `var i = 0; while (i < 200000) { i++; }`,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(SubmitOptions{Source: guestSrc(1)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err=%v, want ErrQueueFull", err)
	}
	m := s.Metrics()
	if m.Rejected != 1 {
		t.Errorf("rejected=%d, want 1", m.Rejected)
	}
	if !s.DrainTimeout(30 * time.Second) {
		t.Fatal("fleet did not drain")
	}
	// Capacity freed: admission works again.
	if _, err := s.Submit(SubmitOptions{Source: guestSrc(2)}); err != nil {
		t.Fatalf("post-drain submit failed: %v", err)
	}
}

// TestInteractiveLanePriority: with one worker saturated by batch guests,
// an interactive guest submitted after all of them still finishes ahead of
// most, because the weighted round-robin favors its lane.
func TestInteractiveLanePriority(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 300})
	defer s.Close()

	var finished atomic.Int64
	const batchN = 8
	batchRank := make(chan int64, batchN)
	batch := make([]*Guest, 0, batchN)
	for i := 0; i < batchN; i++ {
		g, err := s.Submit(SubmitOptions{
			Source: `var i = 0; while (i < 60000) { i++; }`,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, g)
	}
	ipol := Policy{Lane: LaneInteractive}
	ig, err := s.Submit(SubmitOptions{Source: guestSrc(3), Policy: &ipol})
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		for _, g := range batch {
			g := g
			go func() {
				<-g.Done()
				batchRank <- finished.Add(1)
			}()
		}
	}()
	<-ig.Done()
	interactiveRank := finished.Add(1)
	if !s.DrainTimeout(30 * time.Second) {
		t.Fatal("fleet did not drain")
	}
	if res := ig.Result(); res.Err != nil || res.Output != guestWant(3) {
		t.Fatalf("interactive guest: %+v", res)
	}
	// The interactive guest was submitted last; without the priority lane
	// it would finish last (rank 9 of 9). Allow slack for scheduling
	// jitter, but it must beat most of the batch.
	if interactiveRank > 4 {
		t.Errorf("interactive guest finished at rank %d of %d; lane priority ineffective",
			interactiveRank, batchN+1)
	}
}

// TestSleepingGuestReleasesWorker: a guest waiting on setTimeout must not
// hold its worker — a CPU guest submitted behind it on a 1-worker pool
// completes while the sleeper sleeps.
func TestSleepingGuestReleasesWorker(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 500})
	defer s.Close()
	sleeper, err := s.Submit(SubmitOptions{Source: `
setTimeout(function () { console.log("woke"); }, 150);
`})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := s.Submit(SubmitOptions{Source: guestSrc(5)})
	if err != nil {
		t.Fatal(err)
	}
	cres := cpu.Wait()
	if cres.Err != nil || cres.Output != guestWant(5) {
		t.Fatalf("cpu guest: %+v", cres)
	}
	if st := sleeper.State(); st == StateDone {
		t.Log("sleeper finished before cpu guest; host too slow to observe overlap")
	}
	sres := sleeper.Wait()
	if sres.Err != nil {
		t.Fatalf("sleeper: %v", sres.Err)
	}
	if sres.Output != "woke\n" {
		t.Fatalf("sleeper output %q", sres.Output)
	}
}

// TestSleeperDeadlineClamped: a guest parked on a far-future timer must
// still die at its wall deadline — the deadline is a timer of its own, on
// the kill path, so the guest cannot hold a pending slot for the sleep's
// full duration.
func TestSleeperDeadlineClamped(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 500})
	defer s.Close()
	pol := Policy{WallDeadline: 250 * time.Millisecond}
	g, err := s.Submit(SubmitOptions{
		Source: `setTimeout(function () { console.log("never"); }, 3600000);`,
		Policy: &pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sleeping guest not killed at its deadline")
	}
	res := g.Result()
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("err=%v, want ErrDeadline", res.Err)
	}
	if res.Output != "" {
		t.Fatalf("timer fired despite deadline: %q", res.Output)
	}
}

// TestClearedTimerReleasesGuest: a cleared timer is gone from the guest's
// event loop, so a guest that clears its only timer finishes when its code
// does — not when the timer would have fired, and not by dying at its
// deadline.
func TestClearedTimerReleasesGuest(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 500})
	defer s.Close()
	const deadline = 2 * time.Second
	start := time.Now()
	g, err := s.Submit(SubmitOptions{
		Source: `var t = setTimeout(function () { console.log("fired"); }, 60000);
clearTimeout(t);
console.log("done");`,
		Policy: &Policy{WallDeadline: deadline},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Wait()
	if res.Err != nil || res.Output != "done\n" {
		t.Fatalf("err=%v output=%q, want no error and \"done\\n\"", res.Err, res.Output)
	}
	if took := time.Since(start); took > deadline/2 {
		t.Fatalf("guest took %v to finish, want well under its %v deadline", took, deadline)
	}
}

func TestUncaughtGuestErrorIsIsolated(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 300})
	defer s.Close()
	bad, err := s.Submit(SubmitOptions{Source: `
function boom() { throw new Error("guest bug"); }
boom();
`})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(SubmitOptions{Source: guestSrc(9)})
	if err != nil {
		t.Fatal(err)
	}
	bres := bad.Wait()
	if bres.Err == nil || !strings.Contains(bres.Err.Error(), "guest bug") {
		t.Fatalf("bad guest err=%v, want its own Error", bres.Err)
	}
	gres := good.Wait()
	if gres.Err != nil || gres.Output != guestWant(9) {
		t.Fatalf("neighbor affected: %+v", gres)
	}
	m := s.Metrics()
	if m.Failed != 1 {
		t.Errorf("failed=%d, want 1", m.Failed)
	}
}

func TestCompileErrorSynchronous(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(SubmitOptions{Source: `var = ;`}); err == nil {
		t.Fatal("syntax error not reported at Submit")
	}
}

func TestCloseKillsUnfinished(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 200})
	g, err := s.Submit(SubmitOptions{Source: `while (true) { var x = 1; }`})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	res := g.Wait()
	if !errors.Is(res.Err, ErrShutdown) {
		t.Fatalf("err=%v, want ErrShutdown", res.Err)
	}
	if _, err := s.Submit(SubmitOptions{Source: "1;"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err=%v, want ErrClosed", err)
	}
}

// TestCloseUnderLoad: closing while many guests are mid-quantum must
// finalize every guest — including ones a worker was classifying at that
// exact moment (the requeue-after-close window). Every Wait must return.
func TestCloseUnderLoad(t *testing.T) {
	for round := 0; round < 5; round++ {
		s := New(Options{Workers: 4, QuantumSteps: 100})
		var guests []*Guest
		for i := 0; i < 24; i++ {
			g, err := s.Submit(SubmitOptions{Source: `var i = 0; while (i < 10000000) { i++; }`})
			if err != nil {
				t.Fatal(err)
			}
			guests = append(guests, g)
		}
		time.Sleep(time.Duration(round) * 3 * time.Millisecond) // vary the window
		s.Close()
		for i, g := range guests {
			select {
			case <-g.Done():
			case <-time.After(15 * time.Second):
				t.Fatalf("round %d: guest %d (state %v) never finalized after Close", round, i, g.State())
			}
		}
	}
}

func TestInspectAndRemove(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 300})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: guestSrc(11)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Guest(g.ID); got != g {
		t.Fatal("lookup by ID failed")
	}
	g.Wait()
	info := g.Inspect()
	if info.State != "done" || info.Steps == 0 || info.OutputBytes == 0 {
		t.Fatalf("inspect: %+v", info)
	}
	if !s.Remove(g.ID) {
		t.Fatal("remove finished guest failed")
	}
	if s.Guest(g.ID) != nil {
		t.Fatal("guest still resolvable after Remove")
	}
}

// TestRemoveFinished: retention is measured from a guest's finish. A guest
// that finished longer ago than the window is forgotten, its Result still
// valid for holders of the pointer; one that finished inside the window and
// one still running stay addressable.
func TestRemoveFinished(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	done, err := s.Submit(SubmitOptions{Source: `console.log("done");`})
	if err != nil {
		t.Fatal(err)
	}
	spinning, err := s.Submit(SubmitOptions{Source: `for (;;) {}`})
	if err != nil {
		t.Fatal(err)
	}
	done.Wait()
	if n := s.RemoveFinished(time.Hour); n != 0 || s.Guest(done.ID) == nil {
		t.Fatalf("removed %d guests an hour early", n)
	}
	time.Sleep(5 * time.Millisecond)
	if n := s.RemoveFinished(time.Millisecond); n != 1 {
		t.Fatalf("removed %d guests, want the finished one", n)
	}
	if s.Guest(done.ID) != nil || s.Guest(spinning.ID) == nil {
		t.Fatal("the finished guest is still addressable, or the running one is not")
	}
	if out := done.Result().Output; out != "done\n" {
		t.Fatalf("a removed guest's result reads %q", out)
	}
}
