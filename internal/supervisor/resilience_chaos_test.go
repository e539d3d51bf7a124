package supervisor

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// Fault-injection resilience tests: these set the beforeTurn seam directly
// to aim panics at specific guests and then assert the failure domain held
// — the worker survives, exactly one tenant dies, and shutdown paths
// converge while faults are in flight. CI runs them under -race.

// TestWorkerSurvivesInjectedPanic pins the recover barrier on a
// one-worker pool: if the panic killed the worker goroutine, the second
// guest could never be scheduled.
func TestWorkerSurvivesInjectedPanic(t *testing.T) {
	t.Run(core.BackendBytecode, func(t *testing.T) {
		s := New(Options{Workers: 1, QuantumSteps: 300})
		defer s.Close()
		s.SetBeforeTurn(func(id uint64, _ *core.AsyncRun) {
			if id == 1 {
				panic("chaos: injected engine fault")
			}
		})

		victim, err := s.Submit(SubmitOptions{Source: guestSrc(1)})
		if err != nil {
			t.Fatal(err)
		}
		if res := victim.Wait(); !errors.Is(res.Err, ErrInternalFault) {
			t.Fatalf("victim: err=%v, want ErrInternalFault", res.Err)
		}

		bystander, err := s.Submit(SubmitOptions{Source: guestSrc(2)})
		if err != nil {
			t.Fatal(err)
		}
		res := bystander.Wait()
		if res.Err != nil {
			t.Fatalf("bystander on the same worker: %v", res.Err)
		}
		if res.Output != guestWant(2) {
			t.Fatalf("bystander output %q, want %q", res.Output, guestWant(2))
		}

		m := s.Metrics()
		if m.InternalFaults != 1 {
			t.Errorf("InternalFaults=%d, want 1", m.InternalFaults)
		}
		if !strings.Contains(m.LastFault, "chaos") || m.LastFaultStack == "" {
			t.Errorf("fault diagnostics not captured: LastFault=%q stack=%dB",
				m.LastFault, len(m.LastFaultStack))
		}
	})
}

// TestDrainRacesInternalFaults submits a fleet where every fifth guest
// panics its worker mid-turn, then drains: the drain must converge (no
// hung Wait on a guest whose turn blew up), every guest must be finalized
// exactly once, and the bookkeeping must balance.
func TestDrainRacesInternalFaults(t *testing.T) {
	t.Run(core.BackendBytecode, func(t *testing.T) {
		n := 60
		s := New(Options{Workers: 4, MaxPending: n, QuantumSteps: 200})
		defer s.Close()
		s.SetBeforeTurn(func(id uint64, _ *core.AsyncRun) {
			if id%5 == 0 {
				panic("chaos: injected engine fault")
			}
		})

		guests := make([]*Guest, 0, n)
		for i := 0; i < n; i++ {
			g, err := s.Submit(SubmitOptions{Source: guestSrc(i)})
			if err != nil {
				t.Fatal(err)
			}
			guests = append(guests, g)
		}
		if !s.DrainTimeout(30 * time.Second) {
			t.Fatal("drain did not converge with faults in flight")
		}

		var faulted, clean int
		for i, g := range guests {
			res := g.Wait() // must not hang: drain says everyone finished
			switch {
			case errors.Is(res.Err, ErrInternalFault):
				faulted++
			case res.Err == nil:
				clean++
				if res.Output != guestWant(i) {
					t.Errorf("guest %d output diverged under chaos", i)
				}
			default:
				t.Errorf("guest %d: unexpected err %v", i, res.Err)
			}
			// Finalized exactly once: the result is immutable after Done.
			if again := g.Wait(); again.Err != res.Err || again.Output != res.Output {
				t.Errorf("guest %d: second Wait returned a different result", i)
			}
		}
		if faulted != n/5 || clean != n-n/5 {
			t.Errorf("faulted=%d clean=%d, want %d/%d", faulted, clean, n/5, n-n/5)
		}

		m := s.Metrics()
		if m.Active != 0 {
			t.Errorf("Active=%d after drain, want 0 (double-finalize would skew this)", m.Active)
		}
		if m.InternalFaults != uint64(n/5) || m.Completed != uint64(n-n/5) {
			t.Errorf("InternalFaults=%d Completed=%d, want %d/%d",
				m.InternalFaults, m.Completed, n/5, n-n/5)
		}
	})
}

// TestCloseRacesInternalFaults slams Close into a fleet that is actively
// panicking workers: every guest must still reach a terminal state
// (ErrShutdown, ErrInternalFault, or clean completion) and Close must
// return with no worker leaked and no guest finalized twice.
func TestCloseRacesInternalFaults(t *testing.T) {
	t.Run(core.BackendBytecode, func(t *testing.T) {
		n := 60
		s := New(Options{Workers: 4, MaxPending: n, QuantumSteps: 200})
		s.SetBeforeTurn(func(id uint64, _ *core.AsyncRun) {
			if id%5 == 0 {
				panic("chaos: injected engine fault")
			}
		})

		guests := make([]*Guest, 0, n)
		for i := 0; i < n; i++ {
			g, err := s.Submit(SubmitOptions{Source: guestSrc(i)})
			if err != nil {
				t.Fatal(err)
			}
			guests = append(guests, g)
		}
		s.Close() // immediate: races the in-flight panics

		for i, g := range guests {
			res := g.Wait()
			if res.Err != nil &&
				!errors.Is(res.Err, ErrShutdown) &&
				!errors.Is(res.Err, ErrInternalFault) {
				t.Errorf("guest %d: unexpected terminal err %v", i, res.Err)
			}
		}
		if m := s.Metrics(); m.Active != 0 {
			t.Errorf("Active=%d after Close, want 0", m.Active)
		}
	})
}
