package supervisor

import (
	"sync"
	"time"

	"repro/internal/core"
)

// The fault-injection harness: it drives the supervisor's beforeTurn seam to
// inject engine panics, allocation storms, and timer stalls into a live
// fleet, so the resilience claims — blast radius of exactly one tenant,
// workers that survive engine bugs, drains that converge under fire — are
// tested rather than asserted.

// Fault is one kind of injected failure. Each simulates, at the turn
// boundary, a class of incident the fleet must contain to a single tenant.
type Fault int

const (
	// FaultPanic panics on the guest's worker goroutine, exactly where an
	// engine bug would surface — it exercises the worker's recover barrier
	// and the ErrInternalFault finalization path.
	FaultPanic Fault = iota
	// FaultAllocStorm charges a huge allocation against the guest's memory
	// meter, simulating a runaway allocator; the guest must die with
	// interp.ErrMemLimit at its next statement boundary. Only bites guests
	// that have a MemBudgetBytes policy.
	FaultAllocStorm
	// FaultStall blocks the worker for a long beat, simulating a wedged
	// native call; neighbors must keep completing on the remaining workers.
	FaultStall
	// FaultSlowTurn blocks the worker briefly, simulating a degraded host;
	// it should be absorbed with no guest-visible effect at all.
	FaultSlowTurn
)

func (f Fault) String() string {
	switch f {
	case FaultPanic:
		return "panic"
	case FaultAllocStorm:
		return "alloc-storm"
	case FaultStall:
		return "stall"
	case FaultSlowTurn:
		return "slow-turn"
	}
	return "unknown"
}

// Injector is a deterministic fault plan: guest ID → fault, fired at most
// once per guest, on that guest's first scheduled turn. Determinism matters
// — the blast-radius test compares a chaotic fleet byte-for-byte against a
// calm one, so the set of faulted tenants must be exact, not sampled.
type Injector struct {
	mu    sync.Mutex
	plan  map[uint64]Fault
	fired map[uint64]Fault

	// StallFor / SlowFor are the sleep lengths for the two timing faults.
	StallFor time.Duration
	SlowFor  time.Duration
}

// NewInjector returns an empty plan with default timings.
func NewInjector() *Injector {
	return &Injector{
		plan:     make(map[uint64]Fault),
		fired:    make(map[uint64]Fault),
		StallFor: 100 * time.Millisecond,
		SlowFor:  5 * time.Millisecond,
	}
}

// Arm schedules a fault for a guest's next turn.
func (inj *Injector) Arm(guestID uint64, f Fault) {
	inj.mu.Lock()
	inj.plan[guestID] = f
	inj.mu.Unlock()
}

// Fired reports which faults have actually been delivered.
func (inj *Injector) Fired() map[uint64]Fault {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[uint64]Fault, len(inj.fired))
	for id, f := range inj.fired {
		out[id] = f
	}
	return out
}

// Install makes the injector s's fault hook (before the first Submit).
func (inj *Injector) Install(s *Supervisor) { s.SetBeforeTurn(inj.hook) }

// hook runs at the top of every scheduling turn, on the worker goroutine
// that owns the guest for the turn.
func (inj *Injector) hook(guestID uint64, run *core.AsyncRun) {
	inj.mu.Lock()
	f, ok := inj.plan[guestID]
	if ok {
		delete(inj.plan, guestID)
		inj.fired[guestID] = f
	}
	inj.mu.Unlock()
	if !ok {
		return
	}
	switch f {
	case FaultPanic:
		panic("chaos: injected engine fault")
	case FaultAllocStorm:
		// The hook is the turn's owner, so the realm's meter is ours to
		// poison; the guest dies at its next statement boundary.
		run.In.ChargeMem(1 << 40)
	case FaultStall:
		time.Sleep(inj.StallFor)
	case FaultSlowTurn:
		time.Sleep(inj.SlowFor)
	}
}
