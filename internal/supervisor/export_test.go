package supervisor

import "repro/internal/core"

// SetBeforeTurn installs the fault-injection hook (Supervisor.beforeTurn):
// fn runs at the top of every scheduling turn, on the worker that owns the
// guest for the turn, so run's owner-goroutine-only surface is legal to
// touch. Call it before the first Submit — workers read the field unlocked.
func (s *Supervisor) SetBeforeTurn(fn func(guestID uint64, run *core.AsyncRun)) {
	s.beforeTurn = fn
}
