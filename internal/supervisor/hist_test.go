package supervisor

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/stats"
)

// histRelErr is latencyHist's stated bound: a quantile is its bucket's
// midpoint, at most half a bucket (1/(2·histSub) of the octave base) from
// the sample at that rank, plus the gap to the neighbouring sample that
// stats.Quantile interpolates towards.
const histRelErr = 0.05

// logUniform draws n durations log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, n int, lo, hi time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		out[i] = time.Duration(float64(lo) * math.Exp(rng.Float64()*span))
	}
	return out
}

func TestLatencyHistMatchesRawSamples(t *testing.T) {
	samples := logUniform(rand.New(rand.NewSource(1)), 10000, time.Microsecond, 10*time.Second)
	var (
		h, a, b latencyHist
		raw     []float64
		sum     time.Duration
		max     time.Duration
	)
	for i, d := range samples {
		h.add(d)
		if i%3 == 0 {
			a.add(d)
		} else {
			b.add(d)
		}
		raw = append(raw, durMs(d))
		sum += d
		if d > max {
			max = d
		}
	}
	got := h.summary()
	if got.Count != len(samples) || got.SumMs != durMs(sum) || got.Max != durMs(max) {
		t.Errorf("count/sum/max = %d/%v/%v, want exactly %d/%v/%v",
			got.Count, got.SumMs, got.Max, len(samples), durMs(sum), durMs(max))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := stats.Quantile(raw, q)
		if est := h.quantile(q); math.Abs(est-want) > histRelErr*want {
			t.Errorf("quantile(%v) = %v ms, raw samples say %v ms (off by %.1f%%, bound %.0f%%)",
				q, est, want, 100*math.Abs(est-want)/want, 100*histRelErr)
		}
	}
	mergeHist(&a, &b)
	if a != h {
		t.Error("merging a and b differs from adding every sample to one histogram")
	}
}

// mergeHist folds o into h by adding counts. Nothing in the supervisor
// aggregates across histograms yet; the test keeps the property that one
// could, exactly.
func mergeHist(h, o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// TestLatencyHistRange pins the bucket layout: relative error holds at both
// ends of the stated 1 µs – 100 s range, and what falls outside it is still
// counted, with max exact.
func TestLatencyHistRange(t *testing.T) {
	for _, d := range []time.Duration{
		time.Microsecond, 512, 513, 999 * time.Microsecond, time.Second, 100 * time.Second,
	} {
		var h latencyHist
		h.add(d)
		h.add(d)
		h.add(2 * d) // keeps max from clamping the estimate to the sample itself
		if est, want := h.quantile(0.5), durMs(d); math.Abs(est-want) > histRelErr*want {
			t.Errorf("%v reads back as %v ms, off by more than %.0f%%", d, est, 100*histRelErr)
		}
	}
	var h latencyHist
	h.add(0)
	h.add(300 * time.Nanosecond)
	h.add(time.Hour)
	if l := h.summary(); l.Count != 3 || l.Max != durMs(time.Hour) || l.P99 > l.Max {
		t.Errorf("out-of-range samples: %+v, want 3 counted, max one hour, no quantile above it", l)
	}
	if got := (&latencyHist{}).summary(); got != (LatencySummary{}) {
		t.Errorf("empty histogram summarises as %+v, want zeros", got)
	}
}

// The whole-run digest and a window covering the same feed are the same
// type read by the same routine, so they cannot disagree.
func TestWholeRunAndWindowAgree(t *testing.T) {
	var s Supervisor
	m := &s.metrics
	t0 := time.Unix(1000, 0)
	m.initWindows(t0, time.Hour)
	m.mu.Lock()
	for _, d := range logUniform(rand.New(rand.NewSource(2)), 5000, 5*time.Microsecond, time.Second) {
		m.sched.add(d)
		m.windowAdd(t0.Add(time.Minute), d)
	}
	whole := m.sched.summary()
	m.mu.Unlock()

	wins := s.Windows()
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want the one covering the feed", len(wins))
	}
	w := wins[0]
	if w.Turns != whole.Count || w.P50 != whole.P50 || w.P90 != whole.P90 || w.P99 != whole.P99 || w.Max != whole.Max {
		t.Errorf("window %+v disagrees with whole-run digest %+v", w, whole)
	}
}
