package supervisor

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/interp"
)

// chaosGuestSrc builds a deterministic guest whose output depends on its
// seed, so any cross-tenant corruption — state bleed, lost writes, a worker
// dying mid-fleet — shows up as a byte diff against the calm run.
func chaosGuestSrc(seed int) string {
	return fmt.Sprintf(`
var s = %d;
var keep = [];
for (var i = 0; i < 300; i++) {
  s = (s + i * 13) %% 99991;
  if (i %% 50 === 0) { keep.push({round: i, acc: s}); }
}
function mix(n) { if (n < 2) { return n; } return mix(n - 1) + mix(n - 2); }
console.log("chaos%d", s, mix(9), keep.length);
`, seed, seed)
}

type fleetResult struct {
	output string
	err    error
}

// runFleet submits n seeded guests to a fresh supervisor and waits for all
// of them. Guest IDs are 1..n in submission order (single submitting
// goroutine on a fresh supervisor), which is what lets the caller arm an
// injector before any guest exists.
func runFleet(t *testing.T, n int, sup *Supervisor) map[int]fleetResult {
	t.Helper()
	pol := Policy{MemBudgetBytes: 8 << 20}
	guests := make([]*Guest, 0, n)
	for i := 0; i < n; i++ {
		g, err := sup.Submit(SubmitOptions{
			Source: chaosGuestSrc(i),
			Policy: &pol,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if g.ID != uint64(i+1) {
			t.Fatalf("guest %d got ID %d; the fault plan assumes sequential IDs", i, g.ID)
		}
		guests = append(guests, g)
	}
	out := make(map[int]fleetResult, n)
	for i, g := range guests {
		res := g.Wait()
		out[i] = fleetResult{output: res.Output, err: res.Err}
	}
	return out
}

// TestChaosBlastRadius is the acceptance run: a 500-guest fleet with ≥20
// injected faults (engine panics, allocation storms, worker stalls, slow
// turns). The blast radius of every fault must be exactly one tenant —
// every non-faulted guest's output is byte-identical to a fault-free run
// of the same fleet, destructive faults map to their designated errors,
// and the supervisor itself survives to serve new work.
func TestChaosBlastRadius(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 120
	}

	// The deterministic fault plan: one fault every 20 guests, cycling
	// through the four kinds. 24 faults in the full fleet, 6 of each.
	plan := make(map[uint64]Fault)
	for k := 0; uint64(k*20+10) <= uint64(n); k++ {
		plan[uint64(k*20+10)] = Fault(k % 4)
	}
	if len(plan) < 20 && !testing.Short() {
		t.Fatalf("fault plan has %d faults, want >= 20", len(plan))
	}

	// Calm run: the fault-free ground truth.
	calmSup := New(Options{Workers: 8, MaxPending: n + 10, QuantumSteps: 1000})
	calm := runFleet(t, n, calmSup)
	calmSup.Close()
	for i, r := range calm {
		if r.err != nil {
			t.Fatalf("calm run: guest %d failed: %v", i, r.err)
		}
	}

	// Storm run: same fleet, injector armed before any guest is admitted.
	inj := NewInjector()
	for id, f := range plan {
		inj.Arm(id, f)
	}
	stormSup := New(Options{Workers: 8, MaxPending: n + 10, QuantumSteps: 1000})
	defer stormSup.Close()
	inj.Install(stormSup)
	storm := runFleet(t, n, stormSup)

	if fired := inj.Fired(); len(fired) != len(plan) {
		t.Errorf("fired %d faults, armed %d: %v", len(fired), len(plan), fired)
	}

	var wantPanics, wantStorms uint64
	for i := 0; i < n; i++ {
		r := storm[i]
		f, faulted := plan[uint64(i+1)]
		switch {
		case faulted && f == FaultPanic:
			wantPanics++
			if !errors.Is(r.err, ErrInternalFault) {
				t.Errorf("guest %d (panic fault): err=%v, want ErrInternalFault", i, r.err)
			}
		case faulted && f == FaultAllocStorm:
			wantStorms++
			if !errors.Is(r.err, interp.ErrMemLimit) {
				t.Errorf("guest %d (alloc storm): err=%v, want ErrMemLimit", i, r.err)
			}
		default:
			// Non-faulted guests, and the timing faults (stall/slow-turn),
			// must be bit-for-bit indistinguishable from the calm fleet.
			if r.err != nil {
				t.Errorf("guest %d: err=%v, want clean completion", i, r.err)
			}
			if r.output != calm[i].output {
				t.Errorf("guest %d: output diverged from calm run:\nstorm: %q\ncalm:  %q",
					i, r.output, calm[i].output)
			}
		}
	}

	m := stormSup.Metrics()
	if m.InternalFaults != wantPanics {
		t.Errorf("InternalFaults=%d, want %d", m.InternalFaults, wantPanics)
	}
	if m.KilledMem != wantStorms {
		t.Errorf("KilledMem=%d, want %d", m.KilledMem, wantStorms)
	}
	if want := uint64(n) - wantPanics - wantStorms; m.Completed != want {
		t.Errorf("Completed=%d, want %d", m.Completed, want)
	}
	if m.LastFault == "" || m.LastFaultStack == "" {
		t.Error("panic diagnostics not captured in metrics")
	}

	// The fleet took 24 faults; the supervisor must still serve new work.
	g, err := stormSup.Submit(SubmitOptions{Source: chaosGuestSrc(9999)})
	if err != nil {
		t.Fatalf("post-storm submit: %v", err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatalf("post-storm guest failed: %v", res.Err)
	}
}
