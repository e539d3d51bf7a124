package rt

import (
	"slices"
	"testing"

	"repro/internal/eventloop"
)

// ---------------------------------------------------------------------------
// Estimators (§5.1, Figure 6)
// ---------------------------------------------------------------------------

func TestExactEstimator(t *testing.T) {
	clock := eventloop.NewVirtualClock()
	e := &exactEst{clock: clock, delta: 100}
	if e.due() {
		t.Fatal("not due at t=0")
	}
	clock.Advance(99)
	if e.due() {
		t.Fatal("not due before δ")
	}
	clock.Advance(2)
	if !e.due() {
		t.Fatal("due after δ")
	}
	e.reset()
	if e.due() {
		t.Fatal("reset must restart the interval")
	}
}

func TestCountdownEstimator(t *testing.T) {
	e := &countdownEst{n: 5, counter: 5}
	fires := 0
	for i := 0; i < 20; i++ {
		if e.due() {
			fires++
			e.reset()
		}
	}
	if fires != 4 {
		t.Errorf("countdown(5) over 20 calls fired %d times, want 4", fires)
	}
}

// TestApproxEstimatorConvergence drives the sampling estimator with a
// simulated steady call rate and checks the interval between yields
// converges near δ — the property Figure 7 measures.
func TestApproxEstimatorConvergence(t *testing.T) {
	clock := eventloop.NewVirtualClock()
	e := newApproxEst(clock, 100, 25)
	const perMs = 50 // calls per virtual millisecond
	var intervals []float64
	last := clock.Now()
	calls := 0
	for clock.Now() < 5000 {
		calls++
		if calls%perMs == 0 {
			clock.Advance(1)
		}
		if e.due() {
			now := clock.Now()
			intervals = append(intervals, now-last)
			last = now
			e.reset()
		}
	}
	if len(intervals) < 10 {
		t.Fatalf("too few yields: %d", len(intervals))
	}
	// Skip the warmup, then require the steady-state mean near δ.
	tail := intervals[len(intervals)/2:]
	sum := 0.0
	for _, v := range tail {
		sum += v
	}
	mean := sum / float64(len(tail))
	if mean < 50 || mean > 200 {
		t.Errorf("steady-state interval %.1f ms, want ≈100 ms (intervals %v)", mean, tail)
	}
}

// TestApproxAdaptsToRateChange doubles the call rate mid-run; the estimator
// must re-converge instead of keeping the stale velocity (the failure mode
// of the countdown approach, §2).
func TestApproxAdaptsToRateChange(t *testing.T) {
	clock := eventloop.NewVirtualClock()
	e := newApproxEst(clock, 100, 25)
	measure := func(perMs int, untilMs float64) []float64 {
		var intervals []float64
		last := clock.Now()
		calls := 0
		for clock.Now() < untilMs {
			calls++
			if calls%perMs == 0 {
				clock.Advance(1)
			}
			if e.due() {
				intervals = append(intervals, clock.Now()-last)
				last = clock.Now()
				e.reset()
			}
		}
		return intervals
	}
	measure(40, 3000)
	fast := measure(400, 8000) // 10x the rate
	if len(fast) < 5 {
		t.Fatalf("too few yields after rate change: %d", len(fast))
	}
	tail := fast[len(fast)/2:]
	sum := 0.0
	for _, v := range tail {
		sum += v
	}
	mean := sum / float64(len(tail))
	if mean < 40 || mean > 250 {
		t.Errorf("after rate change interval %.1f ms, want ≈100 ms", mean)
	}
}

func TestEstimatorKindString(t *testing.T) {
	if Exact.String() != "exact" || Countdown.String() != "countdown" || Approx.String() != "approx" {
		t.Error("EstimatorKind.String")
	}
}

// callClock is a virtual clock that records the index of the call being made
// whenever it is read.
type callClock struct {
	t     float64
	call  int
	reads []int
}

func (c *callClock) Now() float64       { c.reads = append(c.reads, c.call); return c.t }
func (c *callClock) Advance(ms float64) { c.t += ms }

// TestEstimatorBatchingHidesNothing drives each estimator through the same
// calls twice: once calling due on every one, once as $suspend does with the
// engine's poll (armPoll) — skipping the calls quiet promised and crediting
// them with skip before the next real call. Both runs must yield, and read the
// clock, at the same call indices. The clock's rate changes mid-run, stops
// for a while (the approx estimator's velocity then grows fourfold per
// sample) and some due calls find a native callback on the stack and yield
// nothing.
func TestEstimatorBatchingHidesNothing(t *testing.T) {
	const calls = 300_000
	now := func(i int) float64 {
		switch {
		case i < 60_000:
			return float64(i) / 50
		case i < 150_000:
			return 1200 + float64(i-60_000)/4000
		case i < 180_000:
			return 1222.5 // stopped
		}
		return 1222.5 + float64(i-180_000)/7
	}
	atomicAt := func(i int) bool { return i%7919 == 0 }
	kinds := []struct {
		name string
		make func(*callClock) estimator
	}{
		{"exact", func(c *callClock) estimator { return &exactEst{clock: c, delta: 5} }},
		{"countdown", func(*callClock) estimator { return &countdownEst{n: 1000, counter: 1000} }},
		{"approx", func(c *callClock) estimator { return newApproxEst(c, 100, 25) }},
		{"approx-short", func(c *callClock) estimator { return newApproxEst(c, 1, 25) }},
	}
	for _, k := range kinds {
		run := func(batch bool) (yields, reads []int, skipped int) {
			clock := &callClock{}
			e := k.make(clock)
			budget, owed := 0, 0
			for i := 0; i < calls; i++ {
				if batch && budget > 0 {
					budget--
					owed++
					continue
				}
				e.skip(owed)
				skipped, owed = skipped+owed, 0
				clock.call, clock.t = i, now(i)
				if e.due() && !atomicAt(i) {
					yields = append(yields, i)
					e.reset()
				}
				budget = e.quiet()
			}
			return yields, clock.reads, skipped
		}
		yields, reads, _ := run(false)
		byields, breads, skipped := run(true)
		if !slices.Equal(yields, byields) || !slices.Equal(reads, breads) {
			t.Errorf("%s: batching moved the yields (%d → %d) or the clock reads (%d → %d)",
				k.name, len(yields), len(byields), len(reads), len(breads))
		}
		if k.name != "exact" && skipped < calls/2 {
			t.Errorf("%s: only %d of %d calls were skipped", k.name, skipped, calls)
		}
		t.Logf("%s: %d yields, %d clock reads, %d calls skipped", k.name, len(yields), len(reads), skipped)
	}
}
