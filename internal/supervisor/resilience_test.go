package supervisor

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
)

// Untagged resilience tests: the memory-budget failure domain, exercised
// through the supervisor's public surface only (no chaos seam needed — a
// hostile allocator is just a guest program).

// hostileAllocSrc allocates ~24 KB of metered storage per loop iteration,
// so a small budget is exhausted within the very first quantum.
const hostileAllocSrc = `
var keep = [];
while (true) { keep.push(new Array(1000)); }
`

// TestMemHostileAllocatorIsolated is the acceptance scenario: one guest
// allocating as fast as the engine allows, killed with ErrMemLimit within
// a quantum of exceeding its budget, while 100 well-behaved neighbors
// sharing the workers complete with byte-exact output.
func TestMemHostileAllocatorIsolated(t *testing.T) {
	t.Run(core.BackendBytecode, func(t *testing.T) {
		n := 100
		if testing.Short() {
			n = 30
		}
		s := New(Options{Workers: 4, MaxPending: n + 10, QuantumSteps: 1000})
		defer s.Close()

		pol := Policy{MemBudgetBytes: 256 << 10}
		neighbors := make([]*Guest, 0, n)
		var hostile *Guest
		for i := 0; i < n; i++ {
			g, err := s.Submit(SubmitOptions{Source: guestSrc(i), Policy: &pol})
			if err != nil {
				t.Fatal(err)
			}
			neighbors = append(neighbors, g)
			if i == n/2 {
				// Admitted mid-fleet so its kill happens while
				// neighbors are actively sharing the workers.
				hostile, err = s.Submit(SubmitOptions{Source: hostileAllocSrc, Policy: &pol})
				if err != nil {
					t.Fatal(err)
				}
			}
		}

		res := hostile.Wait()
		if !errors.Is(res.Err, interp.ErrMemLimit) {
			t.Fatalf("hostile allocator: err=%v, want ErrMemLimit", res.Err)
		}
		// ~24 KB of metered bytes per statement against a 256 KiB budget:
		// the budget is gone a dozen statements in, and the shared
		// boundary check must kill within that same quantum — not after
		// the scheduler happens to look again.
		if res.Quanta > 1 {
			t.Errorf("hostile allocator survived %d quanta, want death within its first", res.Quanta)
		}

		for i, g := range neighbors {
			nres := g.Wait()
			if nres.Err != nil {
				t.Errorf("neighbor %d: %v", i, nres.Err)
			} else if nres.Output != guestWant(i) {
				t.Errorf("neighbor %d output %q, want %q", i, nres.Output, guestWant(i))
			}
		}

		m := s.Metrics()
		if m.KilledMem != 1 {
			t.Errorf("KilledMem=%d, want 1", m.KilledMem)
		}
		if m.Killed != 1 {
			t.Errorf("Killed=%d, want 1 (mem kills are supervisor kills)", m.Killed)
		}
		if m.Completed != uint64(n) {
			t.Errorf("Completed=%d, want %d", m.Completed, n)
		}
	})
}

// TestMemBudgetUnmeteredNeighbors pins that the budget is per-tenant: an
// unmetered guest in the same fleet allocates freely while the metered
// hostile one dies.
func TestMemBudgetUnmeteredNeighbors(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 500})
	defer s.Close()

	metered := Policy{MemBudgetBytes: 128 << 10}
	big := `
var keep = [];
for (var i = 0; i < 500; i++) { keep.push(new Array(100)); }
console.log("big", keep.length);
`
	free, err := s.Submit(SubmitOptions{Source: big})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := s.Submit(SubmitOptions{Source: big, Policy: &metered})
	if err != nil {
		t.Fatal(err)
	}
	if res := free.Wait(); res.Err != nil || res.Output != "big 500\n" {
		t.Errorf("unmetered guest: err=%v output=%q", res.Err, res.Output)
	}
	if res := capped.Wait(); !errors.Is(res.Err, interp.ErrMemLimit) {
		t.Errorf("metered guest: err=%v, want ErrMemLimit", res.Err)
	}
}

// TestDrainRacesMemKills drains a fleet in which a quarter of the guests
// are hostile allocators dying of ErrMemLimit while the rest run to
// completion: the drain must converge, every guest is finalized exactly
// once, and the per-cause counter matches.
func TestDrainRacesMemKills(t *testing.T) {
	t.Run(core.BackendBytecode, func(t *testing.T) {
		n := 40
		s := New(Options{Workers: 4, MaxPending: n, QuantumSteps: 200})
		defer s.Close()

		// The short quantum preempts each guest ~100 times, and every
		// preemption's continuation capture is itself metered (~6-9 KB);
		// the budget must cover that scheduler traffic with room to
		// spare, while the hostile allocator (24 KB per statement) still
		// blows through it inside one quantum.
		pol := Policy{MemBudgetBytes: 4 << 20}
		guests := make([]*Guest, 0, n)
		hostiles := 0
		for i := 0; i < n; i++ {
			src := guestSrc(i)
			if i%4 == 0 {
				src = hostileAllocSrc
				hostiles++
			}
			g, err := s.Submit(SubmitOptions{Source: src, Policy: &pol})
			if err != nil {
				t.Fatal(err)
			}
			guests = append(guests, g)
		}
		if !s.DrainTimeout(30 * time.Second) {
			t.Fatal("drain did not converge with mem kills in flight")
		}

		for i, g := range guests {
			res := g.Wait()
			if i%4 == 0 {
				if !errors.Is(res.Err, interp.ErrMemLimit) {
					t.Errorf("hostile %d: err=%v, want ErrMemLimit", i, res.Err)
				}
			} else if res.Err != nil {
				t.Errorf("guest %d: %v", i, res.Err)
			}
			if again := g.Wait(); again.Err != res.Err {
				t.Errorf("guest %d: second Wait disagreed", i)
			}
		}

		m := s.Metrics()
		if m.Active != 0 {
			t.Errorf("Active=%d after drain, want 0", m.Active)
		}
		if m.KilledMem != uint64(hostiles) {
			t.Errorf("KilledMem=%d, want %d", m.KilledMem, hostiles)
		}
		if m.Completed != uint64(n-hostiles) {
			t.Errorf("Completed=%d, want %d", m.Completed, n-hostiles)
		}
	})
}

// TestDrainTimeoutExpires pins the timeout half of DrainTimeout: a guest
// that never finishes (infinite loop, no deadline) must make DrainTimeout
// return false at its deadline rather than hang, and Close then reaps it.
func TestDrainTimeoutExpires(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 200})
	g, err := s.Submit(SubmitOptions{Source: `while (true) {}`})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if s.DrainTimeout(150 * time.Millisecond) {
		t.Fatal("DrainTimeout reported drained with an immortal guest")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DrainTimeout took %v to give up", elapsed)
	}
	s.Close()
	if res := g.Wait(); !errors.Is(res.Err, ErrShutdown) {
		t.Fatalf("immortal guest: err=%v, want ErrShutdown from Close", res.Err)
	}
	if m := s.Metrics(); m.KilledShutdown != 1 {
		t.Errorf("KilledShutdown=%d, want 1", m.KilledShutdown)
	}
}

// TestMemKillCountersInMetrics pins the operator view: repeated budget
// kills land in KilledMem (and Killed), never in InternalFaults.
func TestMemKillCountersInMetrics(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 200})
	defer s.Close()
	pol := Policy{MemBudgetBytes: 64 << 10}
	for i := 0; i < 3; i++ {
		g, err := s.Submit(SubmitOptions{Source: hostileAllocSrc, Policy: &pol})
		if err != nil {
			t.Fatal(err)
		}
		if res := g.Wait(); !errors.Is(res.Err, interp.ErrMemLimit) {
			t.Fatalf("run %d: err=%v, want ErrMemLimit", i, res.Err)
		}
	}
	m := s.Metrics()
	if m.KilledMem != 3 || m.Killed != 3 {
		t.Errorf("KilledMem=%d Killed=%d, want 3/3", m.KilledMem, m.Killed)
	}
	if m.InternalFaults != 0 {
		t.Errorf("InternalFaults=%d, want 0 — a budget kill is policy, not a fault", m.InternalFaults)
	}
}
