package supervisor

import (
	"errors"
	"testing"
	"time"
)

// The admission table: Submit and Restore are two fronts over one admit, so
// every admission rule is asserted once and run through both.

// admitFront is one public way into admit.
type admitFront struct {
	name string
	// good admits a guest that finishes with output admitWant; bad offers
	// input the front's prepare stage refuses.
	good func(*Supervisor, *Policy) (*Guest, error)
	bad  func(*Supervisor) (*Guest, error)
	// prepare is the front's own prepare stage for the good input, so a case
	// can act between admit's early check and its authoritative one.
	prepare func(*Guest) error
}

const admitWant = "phase1\nphase2 142731\n" // longLoopSrc

func admitFronts(t *testing.T) []admitFront {
	t.Helper()
	src := SubmitOptions{Source: longLoopSrc}
	donor := New(Options{Workers: 1})
	defer donor.Close()
	blob, err := donor.SnapshotGuest(pausedGuest(t, donor, longLoopSrc).ID)
	if err != nil {
		t.Fatal(err)
	}
	return []admitFront{{
		name: "Submit",
		good: func(s *Supervisor, pol *Policy) (*Guest, error) {
			return s.Submit(SubmitOptions{Source: src.Source, Policy: pol})
		},
		bad:     func(s *Supervisor) (*Guest, error) { return s.Submit(SubmitOptions{Source: "var = ;"}) },
		prepare: src.prepare,
	}, {
		name:    "Restore",
		good:    func(s *Supervisor, pol *Policy) (*Guest, error) { return s.Restore(blob, pol) },
		bad:     func(s *Supervisor) (*Guest, error) { return s.Restore([]byte("not a snapshot"), nil) },
		prepare: snapshotBlob(blob).prepare,
	}}
}

// occupy fills one pending slot with a guest that stays unfinished until the
// supervisor closes.
func occupy(t *testing.T, s *Supervisor) {
	t.Helper()
	if _, err := s.Submit(SubmitOptions{Source: `setTimeout(function () {}, 3600000);`}); err != nil {
		t.Fatalf("occupying a slot: %v", err)
	}
}

func TestAdmission(t *testing.T) {
	for _, f := range admitFronts(t) {
		t.Run(f.name+"/closed", func(t *testing.T) {
			s := New(Options{Workers: 1})
			s.Close()
			if _, err := f.good(s, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("good input: %v, want ErrClosed", err)
			}
			// Refused before the prepare stage could object to the input.
			if _, err := f.bad(s); !errors.Is(err, ErrClosed) {
				t.Errorf("bad input: %v, want ErrClosed", err)
			}
		})

		t.Run(f.name+"/full-before-prepare", func(t *testing.T) {
			s := New(Options{Workers: 1, MaxPending: 1})
			defer s.Close()
			occupy(t, s)
			if _, err := f.bad(s); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("%v, want ErrQueueFull without reaching the prepare stage", err)
			}
			if _, err := f.good(s, nil); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("%v, want ErrQueueFull", err)
			}
			assertRejected(t, s, 2)
		})

		t.Run(f.name+"/full-after-prepare", func(t *testing.T) {
			s := New(Options{Workers: 1, MaxPending: 1})
			defer s.Close()
			// The slot is free at the early check and taken by the time the
			// prepare stage returns: the check under the lock must refuse.
			_, err := s.admit(nil, func(g *Guest) error {
				occupy(t, s)
				return f.prepare(g)
			})
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("%v, want ErrQueueFull from the authoritative check", err)
			}
			assertRejected(t, s, 1)
		})

		t.Run(f.name+"/prepare-refuses", func(t *testing.T) {
			s := New(Options{Workers: 1})
			defer s.Close()
			_, err := f.bad(s)
			if err == nil || errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
				t.Fatalf("%v, want the prepare stage's own error", err)
			}
			if m := s.Metrics(); m.Active != 0 || m.Rejected != 0 || m.Submitted+m.RestoreAdmits != 0 {
				t.Errorf("a refused input left a mark: %+v", m)
			}
		})

		t.Run(f.name+"/policy", func(t *testing.T) {
			s := New(Options{Workers: 1, DefaultPolicy: Policy{Lane: LaneInteractive}})
			defer s.Close()
			def, err := f.good(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			explicit, err := f.good(s, &Policy{MaxOutputBytes: 3})
			if err != nil {
				t.Fatal(err)
			}
			if lane := def.Inspect().Lane; lane != "interactive" {
				t.Errorf("no policy given: lane %q, want the DefaultPolicy's", lane)
			}
			if res := def.Wait(); res.Err != nil || res.Output != admitWant {
				t.Errorf("default-policy guest: %q, %v", res.Output, res.Err)
			}
			if lane := explicit.Inspect().Lane; lane != "batch" {
				t.Errorf("explicit policy: lane %q, want its own", lane)
			}
			if res := explicit.Wait(); !errors.Is(res.Err, ErrOutputLimit) || res.Output != admitWant[:3] {
				t.Errorf("explicit 3-byte output cap: %q, %v", res.Output, res.Err)
			}
			if m := s.Metrics(); m.Submitted+m.RestoreAdmits != 2 || m.Rejected != 0 {
				t.Errorf("admitted %d+%d, rejected %d; want 2 in total, 0",
					m.Submitted, m.RestoreAdmits, m.Rejected)
			}
		})

		t.Run(f.name+"/deadline", func(t *testing.T) {
			s := New(Options{Workers: 1})
			defer s.Close()
			before := time.Now()
			g, err := f.good(s, &Policy{WallDeadline: time.Hour})
			after := time.Now()
			if err != nil {
				t.Fatal(err)
			}
			free, err := f.good(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Stamped once, when the prepare stage is over — compile time is
			// not charged to the tenant's deadline.
			g.mu.Lock()
			submitted, deadline := g.submitted, g.deadline
			g.mu.Unlock()
			if submitted.Before(before) || submitted.After(after) {
				t.Errorf("submitted %v outside the call [%v, %v]", submitted, before, after)
			}
			if !deadline.Equal(submitted.Add(time.Hour)) {
				t.Errorf("deadline %v, want submitted+1h = %v", deadline, submitted.Add(time.Hour))
			}
			if rem := g.Inspect().DeadlineMs; rem <= 0 {
				t.Errorf("deadline_remaining_ms = %v, want positive", rem)
			}
			free.mu.Lock()
			if !free.deadline.IsZero() {
				t.Errorf("no WallDeadline, yet deadline %v", free.deadline)
			}
			free.mu.Unlock()
		})
	}
}

// assertRejected checks the rejections were counted and traced, and that the
// occupant is still the only admitted guest.
func assertRejected(t *testing.T, s *Supervisor, n int) {
	t.Helper()
	if m := s.Metrics(); m.Rejected != uint64(n) || m.Active != 1 || m.Submitted+m.RestoreAdmits != 1 {
		t.Errorf("rejected=%d active=%d admitted=%d; want %d, 1, 1",
			m.Rejected, m.Active, m.Submitted+m.RestoreAdmits, n)
	}
	rejects := 0
	for _, ev := range s.Trace(0) {
		if ev.Type == TraceReject {
			rejects++
		}
	}
	if rejects != n {
		t.Errorf("%d reject events traced, want %d", rejects, n)
	}
}
