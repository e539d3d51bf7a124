package supervisor

import (
	"errors"
	"testing"
	"time"
)

// A closed-loop burst of the batch mix: 1,000 guests admitted back-to-back —
// every 100th hostile, every 4th on the interactive lane — each output
// verified. RunLoad paces its arrivals, so this is the only place the
// benchWorkloads programs meet a full admission queue.
func TestBurstBatchMixVerified(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	s := New(Options{Workers: 4, MaxPending: n + 8})
	defer s.Close()

	type expect struct {
		g    *Guest
		want string // "" marks a hostile
	}
	guests := make([]expect, 0, n)
	for i := 0; i < n; i++ {
		opt := SubmitOptions{}
		var want string
		switch {
		case i%100 == 99:
			opt.Source = `while (true) { var x = 1; }`
			opt.Policy = &Policy{WallDeadline: hostileDeadline}
		case i%4 == 0:
			opt.Source, want = benchWorkloads[i%len(benchWorkloads)](i)
			opt.Policy = &Policy{Lane: LaneInteractive}
		default:
			opt.Source, want = benchWorkloads[i%len(benchWorkloads)](i)
		}
		g, err := s.Submit(opt)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		guests = append(guests, expect{g, want})
	}
	for i, e := range guests {
		res := e.g.Wait()
		switch {
		case e.want == "":
			if !errors.Is(res.Err, ErrDeadline) {
				t.Errorf("hostile guest %d: err=%v, want deadline kill", i, res.Err)
			}
		case res.Err != nil:
			t.Errorf("guest %d failed: %v", i, res.Err)
		case res.Output != e.want:
			t.Errorf("guest %d output %q, want %q — isolation broken", i, res.Output, e.want)
		}
	}
	if m := s.Metrics(); m.Completed+m.Killed != uint64(n) || m.Preemptions == 0 {
		t.Errorf("completed %d + killed %d of %d guests, %d preemptions", m.Completed, m.Killed, n, m.Preemptions)
	}
}

// A short sustained-load run is the integration test for the whole serving
// stack at once: open-loop arrivals, lane scheduling,
// churn-driven pause/resume/kill, and park/restore through MaxResident on
// the hot path — with every finished guest's output verified.
func TestRunLoadShortSustained(t *testing.T) {
	res, err := RunLoad(LoadConfig{
		ArrivalRate: 300,
		Duration:    2 * time.Second,
		MaxResident: 8, // tiny on purpose: force park/restore traffic
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Unexpected != 0 || res.Stragglers != 0 {
		t.Fatalf("unexpected=%d stragglers=%d (first: %s)",
			res.Unexpected, res.Stragglers, res.FirstUnexpected)
	}
	if res.Arrivals < 100 {
		t.Errorf("arrivals = %d, want a few hundred at 300/s over 2s", res.Arrivals)
	}
	if res.Admitted != res.Arrivals-res.Rejected {
		t.Errorf("admitted %d != arrivals %d - rejected %d", res.Admitted, res.Arrivals, res.Rejected)
	}
	if res.Parks == 0 || res.Restores == 0 {
		t.Errorf("parks=%d restores=%d — MaxResident=8 under churn must park and restore", res.Parks, res.Restores)
	}
	if res.ParkPins != 0 {
		// The mix holds bound functions, Dates, and cancelled timer handles
		// across parks on purpose; since wire v2 none of them may pin.
		t.Errorf("park_pins=%d (%v), want 0 for the standard profile mix",
			res.ParkPins, res.ParkPinsByReason)
	}
	if res.ChurnPauses == 0 || res.ChurnKills == 0 {
		t.Errorf("churn idle: pauses=%d kills=%d", res.ChurnPauses, res.ChurnKills)
	}
	if res.ErrorRate > 0.01 {
		t.Errorf("error rate %.4f > 0.01 (rejected=%d)", res.ErrorRate, res.Rejected)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no windowed metrics recorded")
	}
	turns := 0
	for _, w := range res.Windows {
		turns += w.Turns
	}
	if turns == 0 {
		t.Error("windowed digest saw zero turns")
	}
	if res.WorstWindowP99 <= 0 {
		t.Errorf("worst window P99 = %v, want > 0", res.WorstWindowP99)
	}
	if res.Format() == "" {
		t.Error("empty report")
	}
}
