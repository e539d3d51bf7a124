package supervisor

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRunQueueIsFleetWide checks the run queue's order on a live two-worker
// fleet: first-come first-served within a lane whichever worker is free,
// and interactiveWeight interactive picks per batch pick counted across the
// fleet, not per worker. Pop order itself is only visible under s.mu, so the
// test makes it observable in rounds: every guest's beforeTurn hook reports
// in and holds its worker, and once both workers are held the two guests
// they hold must be exactly the next two of the expected global order.
func TestRunQueueIsFleetWide(t *testing.T) {
	const workers = 2
	s := New(Options{Workers: workers, QuantumSteps: 1 << 40}) // one turn per guest
	defer s.Close()

	type arrival struct {
		id      uint64
		proceed chan struct{}
	}
	arrived := make(chan arrival)
	s.SetBeforeTurn(func(id uint64, _ *core.AsyncRun) {
		a := arrival{id, make(chan struct{})}
		arrived <- a
		<-a.proceed
	})
	submit := func(lane Lane) uint64 {
		t.Helper()
		g, err := s.Submit(SubmitOptions{Source: `var x = 1;`, Policy: &Policy{Lane: lane}})
		if err != nil {
			t.Fatal(err)
		}
		return g.ID
	}
	// hold waits until every worker is inside the hook and reports which
	// guests they hold; release lets those guests run.
	var held [workers]arrival
	hold := func() []uint64 {
		ids := make([]uint64, workers)
		for i := range held {
			held[i] = <-arrived
			ids[i] = held[i].id
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	release := func() {
		for _, a := range held {
			close(a.proceed)
		}
	}

	// Two blockers hold both workers while the queue is loaded.
	var expect []uint64
	for i := 0; i < workers; i++ {
		expect = append(expect, submit(LaneBatch))
	}
	got := hold()

	const batchN = 4
	var batch, interactive []uint64
	for i := 0; i < batchN; i++ {
		batch = append(batch, submit(LaneBatch))
	}
	for i := 0; i < batchN*interactiveWeight; i++ {
		interactive = append(interactive, submit(LaneInteractive))
	}
	// The one order a single queue can produce: interactiveWeight
	// interactive guests, then one batch guest, each lane in submission
	// order.
	for len(batch) > 0 {
		expect = append(expect, interactive[:interactiveWeight]...)
		expect = append(expect, batch[0])
		interactive, batch = interactive[interactiveWeight:], batch[1:]
	}

	for r := 0; ; r++ {
		want := expect[:workers]
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: workers hold guests %v, want %v (then %v)", r, got, want, expect[workers:])
			}
		}
		release()
		if expect = expect[workers:]; len(expect) == 0 {
			break
		}
		got = hold()
	}
	if !s.DrainTimeout(30 * time.Second) {
		t.Fatal("fleet did not drain")
	}
	if m := s.Metrics(); m.Completed != uint64(workers+batchN+batchN*interactiveWeight) || m.Queued != 0 {
		t.Errorf("completed=%d queued=%d after the last round", m.Completed, m.Queued)
	}
}
