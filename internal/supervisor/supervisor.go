// Package supervisor is the multi-tenant execution layer: it admits,
// schedules, and polices many stopified guest programs concurrently on a
// bounded pool of worker goroutines (N workers, M ≫ N guests).
//
// The paper retrofits execution control onto one program — pause, resume,
// and graceful termination at instrumentation-inserted yield points (§2,
// §5.1). This package turns that per-run control into fleet-level
// preemptive scheduling: every guest's statement-boundary quantum hook
// (interp.ArmQuantum) plus its $suspend yield points become preemption
// points, so a worker hands out a step quantum, lets the guest run, and
// gets control back when the quantum expires — the guest parks its own
// continuation exactly as if a user had pressed the stop button. Parked
// guests requeue round-robin, with a weighted lane for interactive
// tenants, and every guest carries a resource policy (wall-clock deadline,
// total step budget, output cap) the supervisor enforces from outside the
// worker. None of this requires guest cooperation beyond what the Stopify
// compiler already inserted, which is the point: untrusted code gets
// paused, resumed, inspected, and killed mid-flight without threads,
// processes, or engine support.
package supervisor

import (
	"cmp"
	"errors"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rt"
)

// Termination and admission errors.
var (
	// ErrDeadline reports a guest killed for exceeding its wall-clock
	// deadline.
	ErrDeadline = errors.New("supervisor: wall-clock deadline exceeded")
	// ErrOutputLimit reports a guest killed for exceeding its output cap.
	ErrOutputLimit = errors.New("supervisor: output limit exceeded")
	// ErrShutdown reports a guest killed because the supervisor closed.
	ErrShutdown = errors.New("supervisor: shut down")
	// ErrStalled reports a guest that stopped making progress with no
	// pending work, no timers, and no pause — typically a blocking
	// operation the supervisor does not provide.
	ErrStalled = errors.New("supervisor: guest stalled with no pending work")
	// ErrQueueFull is Submit's backpressure signal: the admission bound
	// (Options.MaxPending) is reached; retry later or shed load.
	ErrQueueFull = errors.New("supervisor: admission queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("supervisor: closed")
	// ErrInternalFault reports a guest terminated because the engine
	// panicked while executing it — an engine bug, not the guest's error
	// and not a policy kill. The worker's recover barrier quarantines the
	// guest (its realm state is unknown and never touched again), captures
	// the stack to metrics, and survives to serve the next guest: the
	// blast radius of an engine bug is one tenant, not the process.
	ErrInternalFault = errors.New("supervisor: internal engine fault")
)

// Options configures a Supervisor.
type Options struct {
	// Workers is the executor pool size (N goroutines). Default 4.
	Workers int
	// MaxPending bounds admitted-but-unfinished guests; Submit beyond it
	// returns ErrQueueFull. Default 4096.
	MaxPending int
	// QuantumSteps is the statement budget of one scheduling turn.
	// Default 2000.
	QuantumSteps uint64
	// MaxResident bounds live guest realms in memory. Beyond it, idle
	// guests (paused or asleep) are parked — serialized through the
	// snapshot codec and their realms dropped — least-recently-run first,
	// and restored transparently when next touched. 0 means unbounded.
	MaxResident int
	// ParkDir, when set, spills parked snapshots to disk instead of
	// holding the blobs in memory.
	ParkDir string
	// TraceCapacity is how many events the flight recorder retains
	// (trace.go): exactly the last TraceCapacity, oldest overwritten. 0
	// means the default (16384); negative disables tracing entirely.
	TraceCapacity int
	// ProfileEvery arms the guest-level sampling profiler in every guest
	// realm: each guest's JS call stack is sampled every that many
	// statements and the folded-stack counts accumulate on the Guest
	// (Guest.ProfileFolded). 0 leaves profiling off.
	ProfileEvery uint64
	// DefaultPolicy applies to guests submitted without one.
	DefaultPolicy Policy
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.QuantumSteps == 0 {
		o.QuantumSteps = 2000
	}
}

const (
	// interactiveWeight is how many interactive guests run per batch guest
	// when both lanes are waiting.
	interactiveWeight = 4
	// sleepSlackMs: a guest whose next timer is further out than this is
	// parked on a host timer instead of busy-waiting a worker.
	sleepSlackMs = 1.0
	// metricsWindow is the bucket width of the windowed scheduling-latency
	// digest (Supervisor.Windows) — the over-time view the sustained-load
	// harness gates on, as opposed to the whole-run digest.
	metricsWindow = time.Second
)

// SubmitOptions describes one guest program.
type SubmitOptions struct {
	// Source is the guest JavaScript.
	Source string
	// Compile overrides the Stopify compile options. Zero value: core
	// defaults with time-based yielding disabled (the quantum, not a
	// timer, drives preemption under the supervisor). Suspend is forced
	// on — without $suspend yield points a guest could not be preempted.
	Compile core.Opts
	// Policy overrides the supervisor's DefaultPolicy when non-nil.
	Policy *Policy
}

// Supervisor schedules guests onto its worker pool. Create with New, feed
// with Submit, stop with Close.
type Supervisor struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // runnable work or shutdown
	idle    *sync.Cond // pending == 0 (DrainTimeout)
	queue   laneQueue  // the run queue: every worker pops from it
	pending int        // admitted, not yet done
	parkedN int        // unfinished guests whose realm is a parked snapshot
	nextID  uint64
	guests  map[uint64]*Guest
	// residents is the subset of guests holding a live realm (run != nil):
	// its length is the residency gauge, and the MaxResident park scan is
	// O(resident), not O(every guest ever admitted) — under sustained
	// arrivals the full registry grows without bound and an all-guests scan
	// per turn boundary is quadratic.
	residents map[uint64]*Guest
	closed    bool

	wg      sync.WaitGroup
	metrics metrics // every counter and the flight recorder (Supervisor.record)

	// beforeTurn, when set, runs at the top of every turn on the worker that
	// owns the guest, with no locks held. It is the fault-injection seam:
	// only tests set it, before the first Submit.
	beforeTurn func(guestID uint64, run *core.AsyncRun)
}

// New starts a supervisor and its worker pool.
func New(opts Options) *Supervisor {
	opts.normalize()
	s := &Supervisor{
		opts:      opts,
		guests:    make(map[uint64]*Guest),
		residents: make(map[uint64]*Guest),
	}
	s.cond = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	if opts.TraceCapacity >= 0 {
		s.metrics.ring.buf = make([]TraceEvent, cmp.Or(opts.TraceCapacity, defaultTraceCapacity))
	}
	s.queue.rrCredit = interactiveWeight
	s.metrics.initWindows(time.Now(), metricsWindow)
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// Submit compiles source and admits it as a guest. Compile errors are
// returned synchronously; ErrQueueFull signals backpressure. The guest
// starts executing when a worker first picks it up.
func (s *Supervisor) Submit(opt SubmitOptions) (*Guest, error) {
	return s.admit(opt.Policy, opt.prepare)
}

// prepare is Submit's expensive stage: it compiles the source into g.
func (opt SubmitOptions) prepare(g *Guest) (err error) {
	copts := opt.Compile
	if copts == (core.Opts{}) {
		copts = core.Defaults()
		// Preemption is quantum-driven under the supervisor; the sampling
		// estimator would only add overhead and extra self-yields.
		copts.YieldIntervalMs = 0
	}
	// A guest without suspend points could never be preempted, paused, or
	// killed — unacceptable for multi-tenancy, so the knob is not honored.
	copts.Suspend = true
	g.compiled, err = core.CompileCached(opt.Source, copts)
	return err
}

// admit is the one admission path, behind Submit and Restore. It refuses
// early when the supervisor is closed or full, runs prepare — the caller's
// expensive stage, which gives the new guest its program or its parked
// snapshot and may fail — and then admits under the lock, where the same
// refusal check is the authoritative one. The early check is racy by
// design: a flooded host must not burn CPU compiling sources it is about
// to reject.
func (s *Supervisor) admit(pol *Policy, prepare func(*Guest) error) (*Guest, error) {
	s.mu.Lock()
	err := s.refusalLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	g := &Guest{sup: s, pol: s.opts.DefaultPolicy, doneCh: make(chan struct{})}
	if pol != nil {
		g.pol = *pol
	}
	if err := prepare(g); err != nil {
		return nil, err
	}
	now := time.Now()
	g.lane = g.pol.Lane
	g.out = newCappedWriter(g.pol.MaxOutputBytes, func() { s.killGuest(g, ErrOutputLimit) })
	g.submitted, g.readySince = now, now
	if g.pol.WallDeadline > 0 {
		g.deadline = now.Add(g.pol.WallDeadline)
	}
	if g.parked {
		g.parkedAt = now
	}
	blobLen := len(g.parkBlob) // read now: once pushed, g's park state is the workers'

	s.mu.Lock()
	if err := s.refusalLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.nextID++
	g.ID = s.nextID
	s.pending++
	if g.parked {
		s.parkedN++
	}
	s.record(-1, TraceEvent{Type: TraceSubmit, Guest: g.ID, Lane: g.lane.String(), Bytes: blobLen}, 0)
	s.guests[g.ID] = g
	if g.pol.WallDeadline > 0 {
		// The deadline is a kill, as /cancel is: it lands wherever the guest
		// is, in a native callback that never yields too.
		g.deadlineTimer = time.AfterFunc(time.Until(g.deadline), func() { s.killGuest(g, ErrDeadline) })
	}
	s.pushLocked(g)
	s.mu.Unlock()
	return g, nil
}

// refusalLocked reports why a new guest cannot be admitted right now (nil
// when it can), counting and tracing a backpressure rejection. Caller holds
// s.mu.
func (s *Supervisor) refusalLocked() error {
	switch {
	case s.closed:
		return ErrClosed
	case s.pending >= s.opts.MaxPending:
		s.record(-1, TraceEvent{Type: TraceReject}, 0)
		return ErrQueueFull
	}
	return nil
}

// Guest returns a guest by ID (nil if unknown or removed).
func (s *Supervisor) Guest(id uint64) *Guest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.guests[id]
}

// Remove forgets a finished guest (its Result stays valid for holders of
// the pointer). Unfinished guests cannot be removed — kill them first.
func (s *Supervisor) Remove(id uint64) bool {
	// Lock order is strictly g.mu → s.mu everywhere (finalize runs under
	// the guest lock and then touches the scheduler), so look the guest up
	// and drop s.mu before taking g.mu.
	s.mu.Lock()
	g, ok := s.guests[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	g.mu.Lock()
	done := g.state == StateDone
	g.mu.Unlock()
	if !done {
		return false
	}
	s.mu.Lock()
	delete(s.guests, id)
	s.mu.Unlock()
	return true
}

// RemoveFinished forgets every guest that finished more than olderThan ago
// and reports how many: what a serving host calls on a ticker so that it does
// not keep one Result, output buffer included, per run it ever admitted.
func (s *Supervisor) RemoveFinished(olderThan time.Duration) int {
	s.mu.Lock()
	all := make([]*Guest, 0, len(s.guests))
	for _, g := range s.guests {
		all = append(all, g)
	}
	s.mu.Unlock()
	cutoff, removed := time.Now().Add(-olderThan), 0
	for _, g := range all {
		g.mu.Lock()
		old := g.state == StateDone && g.submitted.Add(g.res.WallTime).Before(cutoff)
		g.mu.Unlock()
		if old && s.Remove(g.ID) {
			removed++
		}
	}
	return removed
}

// DrainTimeout blocks until every admitted guest has finished or d elapses,
// reporting whether the fleet fully drained. It does not stop admission or
// kill anything — the graceful-shutdown sequence is: stop admitting (the
// façade's job), DrainTimeout, then Close to kill whatever remains.
func (s *Supervisor) DrainTimeout(d time.Duration) bool {
	deadline := time.Now().Add(d)
	// idle only broadcasts on pending==0; the timer broadcast wakes the
	// waiters so the deadline check below runs even if guests are stuck.
	t := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pending > 0 && time.Now().Before(deadline) {
		s.idle.Wait()
	}
	return s.pending == 0
}

// Close stops admission, kills every unfinished guest (ErrShutdown), and
// waits for the workers to exit.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	all := make([]*Guest, 0, len(s.guests))
	for _, g := range s.guests {
		all = append(all, g)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, g := range all {
		s.killGuest(g, ErrShutdown)
	}
	s.wg.Wait()
}

// ---------------------------------------------------------------------------
// The run queue
// ---------------------------------------------------------------------------

// laneQueue is the supervisor's run queue: two FIFO lanes under s.mu, popped
// by every worker. One queue is all the topology the scheduler needs — the
// lock it lives under is global either way, so per-worker queues would add
// an imbalance to repair without removing any contention — and it makes the
// order exact: a lane is first-come first-served across the whole fleet,
// and the interactive:batch pick ratio holds fleet-wide.
type laneQueue struct {
	interactive []*Guest
	batch       []*Guest
	rrCredit    int // interactive picks left before a batch pick
}

func (q *laneQueue) depth() int { return len(q.interactive) + len(q.batch) }

// pop implements the weighted round-robin pick between the lanes: when both
// have waiting guests, interactiveWeight interactive turns run per batch
// turn; a lone non-empty lane always runs. Returns nil when both are empty.
// It cannot inspect guest state — the lock order is strictly g.mu → s.mu —
// so the worker's claim step (runTurn) discards guests that were paused or
// killed while they waited.
func (q *laneQueue) pop() *Guest {
	var g *Guest
	switch {
	case len(q.interactive) > 0 && len(q.batch) > 0:
		if q.rrCredit > 0 {
			q.rrCredit--
			g, q.interactive = q.interactive[0], q.interactive[1:]
		} else {
			q.rrCredit = interactiveWeight
			g, q.batch = q.batch[0], q.batch[1:]
		}
	case len(q.interactive) > 0:
		g, q.interactive = q.interactive[0], q.interactive[1:]
	case len(q.batch) > 0:
		g, q.batch = q.batch[0], q.batch[1:]
	}
	return g
}

// pushLocked appends g to its lane and wakes a worker. Caller holds s.mu; g
// must already be StateQueued.
func (s *Supervisor) pushLocked(g *Guest) {
	if g.lane == LaneInteractive {
		s.queue.interactive = append(s.queue.interactive, g)
	} else {
		s.queue.batch = append(s.queue.batch, g)
	}
	s.cond.Signal()
}

// makeRunnableLocked queues g for its next turn. Caller holds g.mu and has
// checked that g is in the state the transition is valid from (a stale timer
// or resume must not re-admit a guest that moved on).
func (s *Supervisor) makeRunnableLocked(g *Guest) {
	g.state = StateQueued
	g.readySince = time.Now()
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.pushLocked(g)
	}
	s.mu.Unlock()
	if closed {
		// Nobody will dequeue this guest again (workers are exiting), and
		// Close's kill sweep may already have run while it was mid-
		// transition — dropping it silently would hang Wait/DrainTimeout, so
		// finalize it here.
		s.finalizeLocked(g, ErrShutdown)
	}
}

// ---------------------------------------------------------------------------
// External control (any goroutine)
// ---------------------------------------------------------------------------

// killGuest implements Guest.Kill. A worker-owned guest is signaled
// through the runtime (lands at the next yield point); any parked guest is
// finalized right here, on the caller.
func (s *Supervisor) killGuest(g *Guest, reason error) {
	if reason == nil {
		reason = rt.ErrKilled
	}
	s.record(-1, TraceEvent{Type: TraceKill, Guest: g.ID, Cause: outcomeCause(reason)}, 0)
	g.mu.Lock()
	switch g.state {
	case StateDone:
		g.mu.Unlock()
		return
	case StateRunning:
		// The owning worker consumes killReq at its next classification
		// point; rt.Kill makes the guest reach one quickly.
		if g.killReq == nil {
			g.killReq = reason
		}
		run := g.run
		g.mu.Unlock()
		if run != nil {
			run.Kill(reason)
		}
		return
	default:
		// Queued, sleeping, or paused: no goroutine is executing the
		// guest, so finalize synchronously. A queued guest stays in the
		// lane slice; the worker's claim step discards it on pop (it is
		// no longer StateQueued).
		if g.sleepTimer != nil {
			g.sleepTimer.Stop()
			g.sleepTimer = nil
		}
		s.finalizeLocked(g, reason)
		g.mu.Unlock()
	}
}

// pauseGuest implements Guest.Pause.
func (s *Supervisor) pauseGuest(g *Guest) {
	s.record(-1, TraceEvent{Type: TracePause, Guest: g.ID}, 0)
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.state {
	case StateDone, StatePaused:
		return
	case StateRunning:
		g.pauseReq = true
		if g.run != nil {
			// Park at the next yield point; the worker classifies the
			// park as an external pause and withholds the requeue.
			g.run.Pause(nil)
		}
	case StateSleeping:
		if g.sleepTimer != nil {
			g.sleepTimer.Stop()
			g.sleepTimer = nil
		}
		g.state = StatePaused
	case StateQueued:
		// Left in the lane slice; the worker's claim step discards it.
		g.state = StatePaused
	}
}

// resumeGuest implements Guest.Resume.
func (s *Supervisor) resumeGuest(g *Guest) {
	s.record(-1, TraceEvent{Type: TraceResume, Guest: g.ID}, 0)
	g.mu.Lock()
	g.pauseReq = false
	if g.state == StatePaused {
		s.makeRunnableLocked(g)
	}
	g.mu.Unlock()
}

// ---------------------------------------------------------------------------
// The scheduler proper (worker goroutines)
// ---------------------------------------------------------------------------

func (s *Supervisor) worker(w int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		g := s.queue.pop()
		for g == nil && !s.closed {
			s.cond.Wait()
			g = s.queue.pop()
		}
		s.mu.Unlock()
		if g == nil {
			return // closed and drained
		}
		s.safeTurn(g, w)
	}
}

// safeTurn is the worker's recover barrier: a panic anywhere in the guest's
// turn — the dispatch loop, a builtin, the runtime, an injected fault —
// finalizes that one guest with ErrInternalFault and lets the worker live.
// The barrier is sound because every panic source inside runTurn (NewRun,
// RunOne, Kill, the beforeTurn hook) executes with no supervisor locks
// held: the recovery path can safely take g.mu to finalize. The guest's
// realm is quarantined — its AsyncRun is never resumed or pumped again —
// since a panic mid-dispatch leaves engine invariants unknown. A turn cut
// short this way keeps its wait sample — the wait happened, and the schedule
// event recorded it at the claim — but records no turn, only the fault.
func (s *Supervisor) safeTurn(g *Guest, w int) {
	defer func() {
		if r := recover(); r != nil {
			g.mu.Lock()
			s.faultLocked(g, r)
			g.mu.Unlock()
		}
	}()
	s.runTurn(g, w)
	// Residency enforcement rides on turn boundaries: if this turn pushed
	// the fleet over MaxResident, park idle guests before taking new work.
	// A park that panics is its own guest's fault (tryPark), not this one's.
	s.maybeParkSome()
}

// faultLocked quarantines g after the recovered engine panic r: the fault
// and its stack go to metrics, a sleep timer is stopped, and g finishes with
// ErrInternalFault. Caller holds g.mu, inside the deferred recover.
func (s *Supervisor) faultLocked(g *Guest, r interface{}) {
	s.metrics.internalFault(r, debug.Stack())
	if g.sleepTimer != nil {
		g.sleepTimer.Stop()
		g.sleepTimer = nil
	}
	s.finalizeLocked(g, ErrInternalFault)
}

// turnEnd is how a scheduling turn ended. It is derived once per turn and
// drives both consequences: the guest's state change and the Cause of the
// turn's event, which record folds into the turn and preemption counts.
type turnEnd int

const (
	endNone     turnEnd = iota // no turn ran: no realm could be built
	endComplete                // the guest finished, with its own result or error
	endKill                    // a kill request arrived during the turn
	endPause                   // an external pause was acknowledged at the park
	endPreempt                 // the quantum expired: requeue
	endSleep                   // next timer is far off: park on a host timer
	endStall                   // unfinished with no pending work
)

// turnCauses are the Cause strings of the turn trace event, by turnEnd.
var turnCauses = [...]string{"", "complete", "kill", "pause", "preempt", "sleep", "stall"}

// runTurn claims g, gives it one scheduling quantum on the calling worker,
// then classifies how the quantum ended: finished, preempted (requeue),
// asleep on a timer, externally paused, or dead by policy.
func (s *Supervisor) runTurn(g *Guest, w int) {
	start := time.Now()

	// Claim: the pop handed us the only queue reference, but control calls
	// may have moved the guest off Queued (pause, kill) while it waited —
	// skip those.
	g.mu.Lock()
	if g.state != StateQueued {
		g.mu.Unlock()
		return
	}
	g.state = StateRunning
	wait := start.Sub(g.readySince)
	g.queueWait += wait
	g.quanta++
	run, parked := g.run, g.parked
	g.mu.Unlock()
	s.record(w, TraceEvent{Type: TraceSchedule, Guest: g.ID, Lane: g.lane.String()}, wait)

	// With no realm, either the first turn (instantiate and start $main —
	// NewRun executes the prelude, so it happens here on a worker, not at
	// Submit) or a parked guest being touched (rebuild the realm from its
	// snapshot). A kill never waits here: killGuest finalizes every guest
	// that is not running.
	if run == nil {
		var err error
		if run, err = s.buildRealm(g, parked); err != nil {
			g.mu.Lock()
			s.finalizeLocked(g, err)
			g.mu.Unlock()
			return
		}
	}

	// Fault-injection seam. Runs on the worker that owns the guest this
	// turn, with no locks held, so an injected panic exercises exactly the
	// recover barrier a real engine bug would.
	if s.beforeTurn != nil {
		s.beforeTurn(g.ID, run)
	}

	run.ArmQuantum(s.opts.QuantumSteps)
	if run.Paused() {
		run.Resume()
	}

	// Pump the guest's event loop until the quantum ends. Each RunOne is
	// bounded: the quantum hook pauses the guest within QuantumSteps
	// statements (plus the distance to its next $suspend), or, inside a
	// native callback, which defers the pause, a kill ends it: the deadline,
	// the step budget or Guest.Kill. A guest is complete when $main's
	// chain finished AND the loop drained (timer callbacks run to
	// completion, browser-style) — unless it finished with an error,
	// which is terminal immediately.
	var (
		end      turnEnd
		sleepFor time.Duration
	)
	clock := run.Loop.Clock
	for end == endNone {
		if run.Paused() {
			end = endPreempt
			break
		}
		fin := run.Finished()
		if fin {
			if _, err := run.Result(); err != nil {
				end = endComplete
				break
			}
		}
		due, ok := run.Loop.NextDue()
		switch gap := due - clock.Now(); {
		case !ok && fin:
			end = endComplete
		case !ok:
			end = endStall
		case gap > sleepSlackMs:
			end = endSleep
			sleepFor = time.Duration(gap * float64(time.Millisecond))
		default:
			run.Loop.RunOne()
		}
	}
	dur := time.Since(start)

	// Harvest the sampling profiler while this worker still owns the realm:
	// the folded stacks accumulate on the Guest, so the profile survives
	// parks, restores, and the realm's destruction at finish.
	if prof := run.TakeProfileFolded(); prof != nil {
		g.addProfile(prof)
	}

	// Classify: what the pump saw, overridden by what controllers asked for
	// while it ran. A kill that raced normal completion loses — the guest's
	// own result stands — and an acknowledged Pause wins over both a requeue
	// and a timer park: the guest must not wake and run code later despite
	// the confirmed pause (its due timer simply waits until Resume).
	g.mu.Lock()
	steps := run.Steps()
	g.steps, g.lastTurn = steps, time.Now()
	killReq := g.killReq
	switch {
	case end == endComplete:
	case killReq != nil:
		end = endKill
	case g.pauseReq && end != endStall:
		end = endPause
	}

	switch end {
	case endComplete:
		_, err := run.Result()
		s.finalizeLocked(g, err)
	case endKill:
		// The guest parked before the runtime delivered the kill; finish it
		// here — without g.mu, like every call that could panic.
		g.mu.Unlock()
		run.Kill(killReq)
		g.mu.Lock()
		s.finalizeLocked(g, killReq)
	case endPause:
		g.pauseReq = false
		g.state = StatePaused
	case endPreempt:
		g.preempts++
		s.makeRunnableLocked(g)
	case endSleep:
		g.state = StateSleeping
		g.sleepTimer = time.AfterFunc(sleepFor, func() {
			g.mu.Lock()
			g.sleepTimer = nil
			if g.state == StateSleeping {
				s.makeRunnableLocked(g)
			}
			g.mu.Unlock()
		})
	case endStall:
		s.finalizeLocked(g, ErrStalled)
	}
	g.mu.Unlock()

	s.record(w, TraceEvent{Type: TraceTurn, Guest: g.ID, Cause: turnCauses[end], Steps: steps}, dur)
	if end == endPreempt {
		s.record(w, TraceEvent{Type: TracePreempt, Guest: g.ID}, 0)
	}
}

// buildRealm gives g a live realm: built from its compiled program and
// started on the first turn, rebuilt from its snapshot when g is parked
// (restore on touch). Worker goroutine only, no locks held.
func (s *Supervisor) buildRealm(g *Guest, parked bool) (*core.AsyncRun, error) {
	cfg := core.RunConfig{
		Out:            g.out,
		MaxSteps:       g.pol.MaxTotalSteps,
		MemBudgetBytes: g.pol.MemBudgetBytes,
		ProfileEvery:   s.opts.ProfileEvery,
	}
	if parked {
		return s.restoreGuest(g, cfg)
	}
	run, err := g.compiled.NewRun(cfg)
	if err != nil {
		return nil, err
	}
	s.attach(g, run, time.Time{}, 0)
	run.Run(nil)
	return run, nil
}

// attach makes run the live realm of g: it wires the preemption hook and
// output policing, publishes g.run, and moves the residency gauges. A
// non-zero restoreStart says run was rebuilt from g's parked snapshot of
// blobLen bytes beginning then; the park is released and the restore
// recorded in the same critical section as the gauges, so a Metrics scrape
// never sees the guest both parked and resident.
func (s *Supervisor) attach(g *Guest, run *core.AsyncRun, restoreStart time.Time, blobLen int) {
	// The hook runs on the worker mid-execution: parking is just the
	// paper's pause button pressed by the scheduler instead of a human.
	run.SetOnQuantum(func() { run.Pause(nil) })
	restored := !restoreStart.IsZero()
	g.mu.Lock()
	g.run = run
	path, kill := g.parkPath, g.killReq
	if restored {
		g.parked, g.parkBlob, g.parkPath, g.replayOut = false, nil, "", false
	}
	g.mu.Unlock()
	if kill != nil {
		// A kill that landed while the realm was built — a deadline, or
		// output replayed over the cap — had no run to reach.
		run.Kill(kill)
	}
	if path != "" {
		os.Remove(path)
	}
	s.mu.Lock()
	s.residents[g.ID] = g
	if restored {
		s.parkedN--
		s.record(-1, TraceEvent{Type: TraceRestore, Guest: g.ID, Bytes: blobLen}, time.Since(restoreStart))
	}
	s.mu.Unlock()
}

// finalizeLocked completes g (idempotent). Caller holds g.mu.
func (s *Supervisor) finalizeLocked(g *Guest, err error) {
	if g.state == StateDone {
		return
	}
	g.state = StateDone
	now := time.Now()
	output, truncated := "", false
	if g.out != nil {
		output = g.out.String()
		_, truncated = g.out.Stats()
	}
	if g.run != nil {
		g.steps = g.run.Steps()
	}
	g.res = Result{
		Output:      output,
		Truncated:   truncated,
		Err:         err,
		Steps:       g.steps,
		Quanta:      g.quanta,
		Preemptions: g.preempts,
		QueueWait:   g.queueWait,
		WallTime:    now.Sub(g.submitted),
	}
	close(g.doneCh)

	// Release park artifacts: a guest killed while parked leaves neither a
	// stale spill file nor a phantom entry in the residency gauges.
	wasParked := g.parked
	g.parked = false
	g.parkBlob = nil
	if g.parkPath != "" {
		os.Remove(g.parkPath)
		g.parkPath = ""
	}

	s.mu.Lock()
	if g.deadlineTimer != nil {
		g.deadlineTimer.Stop() // armed under s.mu, in admit
	}
	s.pending--
	delete(s.residents, g.ID)
	if wasParked {
		s.parkedN--
	}
	// The completion counters move in the same critical section as the
	// pending/resident gauges (metrics.mu nests inside s.mu), so a Metrics
	// scrape can never see the counter bump without the gauge drop.
	s.record(-1, TraceEvent{Type: TraceFinish, Guest: g.ID, Cause: outcomeCause(err), Steps: g.steps}, 0)
	if s.pending == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}
