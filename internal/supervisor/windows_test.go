package supervisor

import (
	"testing"
	"time"
)

// Windows() ring edge cases: the windowed scheduling-latency digest must
// stay contiguous, bounded, and monotonic no matter how long the supervisor
// serves or what the clock does. These drive metrics.windowAdd directly —
// pushing the ring past windowRingCap through real scheduling would take
// hours of wall clock.

func TestWindowsEmpty(t *testing.T) {
	var s Supervisor
	if got := s.Windows(); len(got) != 0 {
		t.Fatalf("fresh supervisor has %d windows, want 0", len(got))
	}
	// winLen unset: samples are dropped, not filed into a phantom bucket.
	s.metrics.mu.Lock()
	s.metrics.windowAdd(time.Now(), time.Millisecond)
	s.metrics.mu.Unlock()
	if got := s.Windows(); len(got) != 0 {
		t.Fatalf("windowAdd with no window width produced %d windows, want 0", len(got))
	}
}

func TestWindowsContiguousAndMonotonic(t *testing.T) {
	var s Supervisor
	m := &s.metrics
	t0 := time.Unix(1000, 0)
	m.initWindows(t0, 100*time.Millisecond)

	m.mu.Lock()
	m.windowAdd(t0.Add(10*time.Millisecond), 1*time.Millisecond)  // bucket 0
	m.windowAdd(t0.Add(320*time.Millisecond), 2*time.Millisecond) // bucket 3 (1, 2 stay empty)
	m.windowAdd(t0.Add(350*time.Millisecond), 4*time.Millisecond) // bucket 3 again
	m.mu.Unlock()

	wins := s.Windows()
	if len(wins) != 4 {
		t.Fatalf("got %d windows, want 4 (contiguous through empty buckets)", len(wins))
	}
	for i, w := range wins {
		if want := float64(i) * 100; w.StartMs != want {
			t.Errorf("window %d StartMs = %v, want %v", i, w.StartMs, want)
		}
		if w.WidthMs != 100 {
			t.Errorf("window %d WidthMs = %v, want 100", i, w.WidthMs)
		}
		if i > 0 && wins[i].StartMs != wins[i-1].StartMs+wins[i-1].WidthMs {
			t.Errorf("window %d does not start where %d ends", i, i-1)
		}
	}
	if wins[1].Turns != 0 || wins[2].Turns != 0 {
		t.Errorf("empty buckets carry turns: %+v", wins[1:3])
	}
	if m.windows[1] != nil || m.windows[2] != nil {
		t.Error("windows nothing was scheduled in were allocated")
	}
	if wins[3].Turns != 2 || wins[3].Max != 4.0 {
		t.Errorf("bucket 3 = %+v, want 2 turns max 4.0", wins[3])
	}
}

func TestWindowsRingWrapAndClockSkew(t *testing.T) {
	var s Supervisor
	m := &s.metrics
	t0 := time.Unix(1000, 0)
	m.initWindows(t0, time.Millisecond)

	m.mu.Lock()
	m.windowAdd(t0, time.Millisecond)
	// Land a sample far enough out that the ring must drop old buckets.
	over := 10
	m.windowAdd(t0.Add(time.Duration(windowRingCap+over-1)*time.Millisecond), 2*time.Millisecond)
	m.mu.Unlock()

	wins := s.Windows()
	if len(wins) != windowRingCap {
		t.Fatalf("ring holds %d windows, want cap %d", len(wins), windowRingCap)
	}
	// The oldest `over` buckets were dropped: the series now starts at their
	// successor, and the absolute timeline is preserved.
	if want := float64(over); wins[0].StartMs != want {
		t.Errorf("after wrap, first window StartMs = %v, want %v", wins[0].StartMs, want)
	}
	last := wins[len(wins)-1]
	if last.Turns != 1 || last.Max != 2.0 {
		t.Errorf("newest bucket = %+v, want the sample that forced the wrap", last)
	}

	// Clock skew: a sample timestamped before the retained range must land in
	// the oldest retained bucket, not panic or resurrect a dropped one.
	m.mu.Lock()
	m.windowAdd(t0, 9*time.Millisecond) // bucket index 0 < winBase
	m.mu.Unlock()
	wins = s.Windows()
	if len(wins) != windowRingCap {
		t.Fatalf("skewed sample changed ring length to %d", len(wins))
	}
	if wins[0].Turns != 1 || wins[0].Max != 9.0 {
		t.Errorf("skewed sample not filed into oldest retained bucket: %+v", wins[0])
	}
}

// TestWorstWindowP99Threshold pins the SLO gate's window filter: buckets
// with fewer than minWindowTurns turns are statistical noise and must not
// decide the worst-window figure; when nothing qualifies, the whole-run
// fallback is used.
func TestWorstWindowP99Threshold(t *testing.T) {
	wins := []WindowSummary{
		{Turns: minWindowTurns - 1, P99: 500}, // under-filled: ignored
		{Turns: minWindowTurns, P99: 5},
		{Turns: minWindowTurns + 10, P99: 7},
	}
	if got := worstWindowP99(wins, 99); got != 7 {
		t.Errorf("worstWindowP99 = %v, want 7 (the under-filled 500 must not win)", got)
	}
	if got := worstWindowP99([]WindowSummary{{Turns: 3, P99: 500}}, 42); got != 42 {
		t.Errorf("worstWindowP99 with no qualifying window = %v, want fallback 42", got)
	}
	if got := worstWindowP99(nil, 13); got != 13 {
		t.Errorf("worstWindowP99(nil) = %v, want fallback 13", got)
	}
}
