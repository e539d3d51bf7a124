package rt

import "repro/internal/eventloop"

// EstimatorKind selects how elapsed time is estimated between yields (§5.1,
// Figure 6 and Figure 7).
type EstimatorKind int

// Estimator kinds.
const (
	// Exact checks the system clock on every maySuspend call — accurate but
	// needlessly expensive; it is what Skulpt does.
	Exact EstimatorKind = iota
	// Countdown yields after a fixed number of maySuspend calls, assuming a
	// fixed execution rate — cheap but wildly variable across benchmarks
	// and engines; it is what classic Pyret does (Figure 2c).
	Countdown
	// Approx samples the clock occasionally and estimates elapsed time from
	// the measured call rate (velocity) — Stopify's estimator (Figure 6).
	Approx
)

func (k EstimatorKind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Countdown:
		return "countdown"
	case Approx:
		return "approx"
	}
	return "unknown"
}

// estimator decides when the yield interval δ has elapsed.
type estimator interface {
	// due is called once per maySuspend and reports whether to yield now.
	due() bool
	// reset marks a yield point.
	reset()
	// quiet is how many of the next calls are certain to be neither due nor
	// a clock read; skip(n) then stands for n such calls of due, leaving the
	// estimator as they would have. A runtime that batches those calls
	// (armPoll) yields, and reads the clock, on the same calls as one that
	// makes every one.
	quiet() int
	skip(n int)
}

// exactEst reads the clock on every call.
type exactEst struct {
	clock eventloop.Clock
	delta float64
	last  float64
}

func (e *exactEst) due() bool  { return e.clock.Now()-e.last >= e.delta }
func (e *exactEst) reset()     { e.last = e.clock.Now() }
func (e *exactEst) quiet() int { return 0 } // every call reads the clock
func (e *exactEst) skip(int)   {}

// countdownEst yields every n calls.
type countdownEst struct {
	n       int
	counter int
}

func (e *countdownEst) due() bool {
	e.counter--
	return e.counter <= 0
}

func (e *countdownEst) reset() { e.counter = e.n }

// quiet: the call that takes the counter to zero is due.
func (e *countdownEst) quiet() int { return max(e.counter-1, 0) }
func (e *countdownEst) skip(n int) { e.counter -= n }

// approxEst implements Figure 6: it counts calls (distance), occasionally
// samples the clock to maintain an estimate of the call rate (velocity, in
// calls per millisecond), and yields when distance/velocity reaches δ. The
// sampling period t controls estimate accuracy versus clock-read cost.
type approxEst struct {
	clock eventloop.Clock
	delta float64 // δ: desired yield interval, ms
	t     float64 // resample period, ms

	distance    float64 // calls since last yield
	sinceSample float64 // calls since last clock read
	counter     int     // calls until next clock read
	lastTime    float64
	velocity    float64 // calls per ms
}

// sampleMs is the sampling period t every runtime uses.
const sampleMs = 25

func newApproxEst(clock eventloop.Clock, delta, t float64) *approxEst {
	return &approxEst{clock: clock, delta: delta, t: t, lastTime: clock.Now()}
}

func (e *approxEst) due() bool {
	e.distance++
	e.sinceSample++
	e.counter--
	if e.counter <= 0 {
		now := e.clock.Now()
		dt := now - e.lastTime
		if dt > 0 {
			e.velocity = e.sinceSample / dt
		} else {
			// The clock has not advanced: we are running faster than its
			// resolution. Scale the estimate up so sampling backs off.
			if e.velocity == 0 {
				e.velocity = 1
			} else {
				e.velocity *= 4
			}
		}
		e.lastTime = now
		e.sinceSample = 0
		next := int(e.t * e.velocity)
		if next < 1 {
			next = 1
		}
		if next > 1<<20 {
			next = 1 << 20
		}
		e.counter = next
	}
	return e.velocity > 0 && e.distance/e.velocity >= e.delta
}

func (e *approxEst) reset() { e.distance = 0 }

// quiet is the smaller of the calls before the one that reads the clock and
// the calls before distance/velocity reaches δ. The second is solved exactly
// as due computes it: distance stays an integer, and the division is
// monotone in it, so the estimate only needs nudging over a rounding edge.
func (e *approxEst) quiet() int {
	n := e.counter - 1
	if n <= 0 || e.velocity <= 0 {
		return max(n, 0) // no velocity yet: never due before a sample
	}
	quietAt := func(k int) bool { return (e.distance+float64(k))/e.velocity < e.delta }
	k := n
	if x := e.delta*e.velocity - e.distance; x < float64(n) {
		k = max(int(x), 0)
	}
	for k > 0 && !quietAt(k) {
		k--
	}
	for k < n && quietAt(k+1) {
		k++
	}
	return k
}

func (e *approxEst) skip(n int) {
	e.distance += float64(n)
	e.sinceSample += float64(n)
	e.counter -= n
}
