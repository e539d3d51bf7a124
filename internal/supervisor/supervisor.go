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
	"errors"
	"fmt"
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
	// Backend forces an execution engine for guests ("tree"/"bytecode");
	// empty uses the process default (STOPIFY_BACKEND).
	Backend string
	// MaxResident bounds live guest realms in memory. Beyond it, idle
	// guests (paused or asleep) are parked — serialized through the
	// snapshot codec and their realms dropped — least-recently-run first,
	// and restored transparently when next touched. 0 means unbounded.
	MaxResident int
	// ParkDir, when set, spills parked snapshots to disk instead of
	// holding the blobs in memory.
	ParkDir string
	// TraceCapacity bounds the flight recorder's total retained events
	// (trace.go); oldest are overwritten. 0 means the default (16384);
	// negative disables tracing entirely.
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

	mu       sync.Mutex
	cond     *sync.Cond  // runnable work or shutdown
	idle     *sync.Cond  // pending == 0 (Drain)
	queues   []laneQueue // one two-lane run queue per worker (work-stealing)
	nextHome int         // round-robin home-queue assignment for new guests
	pending  int         // admitted, not yet done
	resident int         // unfinished guests holding a live realm (run != nil)
	parkedN  int         // unfinished guests whose realm is a parked snapshot
	nextID   uint64
	guests   map[uint64]*Guest
	// residents mirrors the subset of guests with run != nil so the
	// MaxResident park scan is O(resident), not O(every guest ever
	// admitted) — under sustained arrivals the full registry grows without
	// bound and an all-guests scan per turn boundary is quadratic.
	residents map[uint64]*Guest
	closed    bool

	wg      sync.WaitGroup
	metrics metrics
	tracer  *traceRecorder // nil when Options.TraceCapacity < 0
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
		// One shard per worker plus one for control-plane goroutines.
		s.tracer = newTraceRecorder(opts.Workers+1, opts.TraceCapacity)
	}
	s.queues = make([]laneQueue, opts.Workers)
	for i := range s.queues {
		s.queues[i].rrCredit = interactiveWeight
	}
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
	// Shed load before the expensive stage: a flooded host must not burn
	// CPU compiling sources it is about to reject. This pre-check is
	// racy by design; the post-compile check under the lock is the
	// authoritative one.
	s.mu.Lock()
	closed, pending := s.closed, s.pending
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if pending >= s.opts.MaxPending {
		s.metrics.reject()
		s.trace(-1, TraceEvent{Type: TraceReject})
		return nil, ErrQueueFull
	}

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
	compiled, err := core.CompileCached(opt.Source, copts)
	if err != nil {
		return nil, err
	}

	pol := s.opts.DefaultPolicy
	if opt.Policy != nil {
		pol = *opt.Policy
	}

	now := time.Now()
	g := &Guest{
		sup:        s,
		pol:        pol,
		lane:       pol.Lane,
		compiled:   compiled,
		out:        newCappedWriter(pol.MaxOutputBytes),
		home:       -1, // assigned round-robin on first push
		submitted:  now,
		readySince: now,
		doneCh:     make(chan struct{}),
	}
	if pol.WallDeadline > 0 {
		g.deadline = now.Add(pol.WallDeadline)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.pending >= s.opts.MaxPending {
		s.mu.Unlock()
		s.metrics.reject()
		s.trace(-1, TraceEvent{Type: TraceReject})
		return nil, ErrQueueFull
	}
	s.nextID++
	g.ID = s.nextID
	s.pending++
	s.guests[g.ID] = g
	s.pushLocked(g)
	s.metrics.submit()
	s.mu.Unlock()
	s.trace(-1, TraceEvent{Type: TraceSubmit, Guest: g.ID, Lane: laneName(g.lane)})
	return g, nil
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

// Drain blocks until every admitted guest has finished.
func (s *Supervisor) Drain() {
	s.mu.Lock()
	for s.pending > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
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
// Run queues (per-worker, with work-stealing)
// ---------------------------------------------------------------------------

// laneQueue is one worker's two-lane run queue. Each admitted guest gets a
// home queue (round-robin across workers); its owner pops with the weighted
// interactive/batch pick, and a worker whose own queue is empty steals from
// the deepest sibling backlog instead of sleeping — the fix for the turn
// imbalance the sustained-load harness exposes when one worker's tenants
// happen to be the long-turn ones. All queues live under s.mu; "stealing"
// here is about queue topology (affinity plus rebalancing), not lock-free
// deques.
type laneQueue struct {
	interactive []*Guest
	batch       []*Guest
	rrCredit    int // interactive picks left before a batch pick
}

func (q *laneQueue) depth() int { return len(q.interactive) + len(q.batch) }

// pop implements the weighted round-robin pick between the queue's lanes:
// when both have waiting guests, interactiveWeight interactive turns run per
// batch turn; a lone non-empty lane always runs. Returns nil when both are
// empty.
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

// pushLocked appends g to its home queue's lane and wakes a worker. Caller
// holds s.mu; g must already be StateQueued (or about to be treated as
// such). A first-time guest (home < 0) is assigned its home round-robin.
// Any worker the Signal wakes can run the guest — if its own queue is
// empty it steals — so one cond covers all queues.
func (s *Supervisor) pushLocked(g *Guest) {
	if g.home < 0 {
		g.home = s.nextHome
		s.nextHome = (s.nextHome + 1) % len(s.queues)
	}
	q := &s.queues[g.home]
	if g.lane == LaneInteractive {
		q.interactive = append(q.interactive, g)
	} else {
		q.batch = append(q.batch, g)
	}
	s.cond.Signal()
}

// popLocked picks the next guest for worker w: its own queue first, then a
// steal from the sibling with the deepest backlog. Returns nil when every
// queue is empty. It pops unconditionally — it cannot inspect guest state,
// because the lock order is strictly g.mu → s.mu — so every caller must
// perform the worker's claim step (take g.mu, verify StateQueued, discard
// otherwise) before running what it popped; killed and paused guests are
// weeded out there.
func (s *Supervisor) popLocked(w int) (g *Guest, stolen bool) {
	if g := s.queues[w].pop(); g != nil {
		return g, false
	}
	victim, depth := -1, 0
	for i := range s.queues {
		if i == w {
			continue
		}
		if d := s.queues[i].depth(); d > depth {
			victim, depth = i, d
		}
	}
	if victim < 0 {
		return nil, false
	}
	g = s.queues[victim].pop()
	if g != nil {
		// The thief becomes the new home: a guest that keeps getting stolen
		// is a guest whose home worker is overloaded, so migrate it.
		g.home = w
		s.metrics.steal()
	}
	return g, g != nil
}

// requeue puts a parked guest back on its lane. From is the state the
// transition is valid from (a stale timer or resume must not re-admit a
// guest that moved on).
func (s *Supervisor) requeue(g *Guest, from State) {
	g.mu.Lock()
	if g.state != from {
		g.mu.Unlock()
		return
	}
	g.state = StateQueued
	g.readySince = time.Now()
	g.mu.Unlock()
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.pushLocked(g)
	}
	s.mu.Unlock()
	if closed {
		// Nobody will dequeue this guest again (workers are exiting), and
		// Close's kill sweep may already have run while it was mid-
		// transition — dropping it silently would hang Wait/Drain, so
		// finalize it here.
		g.mu.Lock()
		s.finalizeLocked(g, ErrShutdown)
		g.mu.Unlock()
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
	s.trace(-1, TraceEvent{Type: TraceKill, Guest: g.ID, Cause: outcomeCause(reason)})
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
		if g.killReq == nil {
			g.killReq = reason
		}
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
	s.trace(-1, TraceEvent{Type: TracePause, Guest: g.ID})
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
	s.trace(-1, TraceEvent{Type: TraceResume, Guest: g.ID})
	g.mu.Lock()
	g.pauseReq = false
	if g.state != StatePaused {
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	s.requeue(g, StatePaused)
}

// ---------------------------------------------------------------------------
// The scheduler proper (worker goroutines)
// ---------------------------------------------------------------------------

func (s *Supervisor) worker(w int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var g *Guest
		var stolen bool
		for {
			g, stolen = s.popLocked(w)
			if g != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		if g == nil {
			return // closed and drained
		}
		// Claim: the pop handed us the only queue reference, but control
		// calls may have moved the guest off Queued (pause, kill) while it
		// waited — skip those.
		g.mu.Lock()
		if g.state != StateQueued {
			g.mu.Unlock()
			continue
		}
		g.state = StateRunning
		wait := time.Since(g.readySince)
		g.queueWait += wait
		g.quanta++
		lane := g.lane
		g.mu.Unlock()
		s.metrics.schedLatency(wait)
		s.trace(w, TraceEvent{
			Type: TraceSchedule, Guest: g.ID, Lane: laneName(lane),
			Steal: stolen, WaitUs: wait.Microseconds(),
		})
		s.safeTurn(g, w)
	}
}

// safeTurn is the worker's recover barrier: a panic anywhere in the guest's
// turn — the dispatch loop, a builtin, the runtime, an injected chaos fault
// — finalizes that one guest with ErrInternalFault and lets the worker
// live. The barrier is sound because every panic source inside runTurn
// (NewRun, RunOne, Kill, the chaos hook) executes with no supervisor locks
// held: the recovery path can safely take g.mu to finalize. The guest's
// realm is quarantined — its AsyncRun is never resumed or pumped again —
// since a panic mid-dispatch leaves engine invariants unknown.
func (s *Supervisor) safeTurn(g *Guest, w int) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.internalFault(r, debug.Stack())
			g.mu.Lock()
			if g.sleepTimer != nil {
				g.sleepTimer.Stop()
				g.sleepTimer = nil
			}
			s.finalizeLocked(g, ErrInternalFault)
			g.mu.Unlock()
		}
	}()
	s.runTurn(g, w)
	// Residency enforcement rides on turn boundaries: if this turn pushed
	// the fleet over MaxResident, park idle guests before taking new work.
	s.maybeParkSome()
}

// runTurn gives g one scheduling quantum on the calling worker, then
// classifies how the quantum ended: finished, preempted (requeue), asleep
// on a timer, externally paused, or dead by policy.
func (s *Supervisor) runTurn(g *Guest, w int) {
	turnStart := time.Now()

	g.mu.Lock()
	killReq := g.killReq
	deadline := g.deadline
	g.mu.Unlock()

	// Policy gate before burning any cycles on a condemned guest.
	if killReq == nil && !deadline.IsZero() && time.Now().After(deadline) {
		killReq = ErrDeadline
	}
	if killReq != nil {
		if g.run != nil {
			g.run.Kill(killReq) // a parked run finishes synchronously
		}
		g.mu.Lock()
		s.finalizeLocked(g, killReq)
		g.mu.Unlock()
		return
	}

	// No realm: either the first turn (instantiate and start $main — NewRun
	// executes the prelude, so it happens here on a worker, not at Submit)
	// or a parked guest being touched (rebuild the realm from its snapshot).
	if g.run == nil {
		g.mu.Lock()
		parked := g.parked
		g.mu.Unlock()
		var err error
		if parked {
			err = s.restoreGuest(g)
		} else {
			err = s.startGuest(g)
		}
		if err != nil {
			g.mu.Lock()
			s.finalizeLocked(g, err)
			g.mu.Unlock()
			return
		}
	}
	run := g.run

	// Fault-injection seam: a no-op unless built with -tags=chaos AND a
	// hook is installed. Runs on the worker that owns the guest this turn,
	// with no locks held, so an injected panic exercises exactly the
	// recover barrier a real engine bug would.
	chaosBeforeTurn(g, run)

	run.ArmQuantum(s.opts.QuantumSteps)
	if run.Paused() {
		run.Resume()
	}

	// Pump the guest's event loop until the quantum ends. Each RunOne is
	// bounded: the quantum hook pauses the guest within QuantumSteps
	// statements (plus the distance to its next $suspend), so a worker is
	// never trapped by an infinite loop. A guest is complete when $main's
	// chain finished AND the loop drained (timer callbacks run to
	// completion, browser-style) — unless it finished with an error,
	// which is terminal immediately.
	var (
		completed bool
		sleeping  bool
		sleepFor  time.Duration
		stalled   bool
		preempted bool
	)
	clock := run.Loop.Clock
	for {
		if run.Paused() {
			preempted = true
			break
		}
		fin := run.Finished()
		if fin {
			if _, err := run.Result(); err != nil {
				completed = true
				break
			}
		}
		due, ok := run.Loop.NextDue()
		if !ok {
			completed, stalled = fin, !fin
			break
		}
		if gap := due - clock.Now(); gap > sleepSlackMs {
			sleeping = true
			sleepFor = time.Duration(gap * float64(time.Millisecond))
			break
		}
		// Mid-turn policy check: a deadline that expires while the guest
		// runs converts the next yield into a kill.
		if !deadline.IsZero() && time.Now().After(deadline) {
			run.Kill(ErrDeadline)
		}
		run.Loop.RunOne()
	}
	turnDur := time.Since(turnStart)
	s.metrics.turn(turnDur)

	// Harvest the sampling profiler while this worker still owns the realm:
	// the folded stacks accumulate on the Guest, so the profile survives
	// parks, restores, and the realm's destruction at finish.
	if prof := run.TakeProfileFolded(); prof != nil {
		g.addProfile(prof)
	}

	// Classify.
	g.mu.Lock()
	g.steps = run.Steps()
	g.lastTurn = time.Now()
	if preempted && !g.pauseReq {
		g.preempts++
	}
	killReq = g.killReq
	turnCause := "error"
	switch {
	case completed:
		turnCause = "complete"
	case killReq != nil:
		turnCause = "kill"
	case (preempted || sleeping) && g.pauseReq:
		turnCause = "pause"
	case preempted:
		turnCause = "preempt"
	case sleeping:
		turnCause = "sleep"
	case stalled:
		turnCause = "stall"
	}
	turnSteps := g.steps
	switch {
	case completed:
		// A kill that raced normal completion loses: the guest's own
		// result stands.
		_, err := run.Result()
		s.finalizeLocked(g, err)
		g.mu.Unlock()
	case killReq != nil:
		// Kill arrived during the turn but the guest parked before the
		// runtime delivered it; finish it here.
		g.mu.Unlock()
		run.Kill(killReq)
		g.mu.Lock()
		s.finalizeLocked(g, killReq)
		g.mu.Unlock()
	case preempted && g.pauseReq:
		g.pauseReq = false
		g.state = StatePaused
		g.mu.Unlock()
	case preempted:
		g.mu.Unlock()
		s.metrics.preempt()
		s.requeue(g, StateRunning)
	case sleeping:
		// An external Pause acknowledged during this turn wins over the
		// timer park: the guest must not wake and run code later despite
		// the confirmed pause. (Its due timer simply waits until Resume.)
		if g.pauseReq {
			g.pauseReq = false
			g.state = StatePaused
			g.mu.Unlock()
			break
		}
		// A timer-parked guest must not outlive its wall deadline: clamp
		// the wake-up so the turn-start policy gate kills it on schedule
		// instead of letting a long setTimeout hold a pending slot for
		// hours past its deadline.
		if !deadline.IsZero() {
			if remain := time.Until(deadline); remain < sleepFor {
				if remain < 0 {
					remain = 0
				}
				sleepFor = remain
			}
		}
		g.state = StateSleeping
		g.sleepTimer = time.AfterFunc(sleepFor, func() {
			g.mu.Lock()
			g.sleepTimer = nil
			g.mu.Unlock()
			s.requeue(g, StateSleeping)
		})
		g.mu.Unlock()
	case stalled:
		s.finalizeLocked(g, ErrStalled)
		g.mu.Unlock()
	default:
		// Unreachable: the pump loop only exits through the cases above.
		s.finalizeLocked(g, fmt.Errorf("supervisor: internal scheduling error"))
		g.mu.Unlock()
	}
	s.trace(w, TraceEvent{
		Type: TraceTurn, Guest: g.ID, DurUs: turnDur.Microseconds(),
		Cause: turnCause, Steps: turnSteps,
	})
	if turnCause == "preempt" {
		s.trace(w, TraceEvent{Type: TracePreempt, Guest: g.ID})
	}
}

// startGuest builds g's realm (AsyncRun), wires the preemption hook and
// output policing, and starts $main. Worker goroutine only.
func (s *Supervisor) startGuest(g *Guest) error {
	cfg := core.RunConfig{
		Out:            g.out,
		Backend:        s.opts.Backend,
		MaxSteps:       g.pol.MaxTotalSteps,
		MemBudgetBytes: g.pol.MemBudgetBytes,
		ProfileEvery:   s.opts.ProfileEvery,
	}
	run, err := g.compiled.NewRun(cfg)
	if err != nil {
		return err
	}
	// The hook runs on the worker mid-execution: parking is just the
	// paper's pause button pressed by the scheduler instead of a human.
	run.SetOnQuantum(func() { run.Pause(nil) })
	g.out.setOverflow(func() { run.Kill(ErrOutputLimit) })
	g.mu.Lock()
	g.run = run
	g.mu.Unlock()
	s.mu.Lock()
	s.resident++
	s.residents[g.ID] = g
	s.mu.Unlock()
	run.Run(nil)
	return nil
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
	wasResident, wasParked := g.run != nil, g.parked
	g.parked = false
	g.parkBlob = nil
	if g.parkPath != "" {
		os.Remove(g.parkPath)
		g.parkPath = ""
	}

	s.mu.Lock()
	s.pending--
	if wasResident {
		s.resident--
		delete(s.residents, g.ID)
	}
	if wasParked {
		s.parkedN--
	}
	// The completion counters move in the same critical section as the
	// pending/resident gauges (metrics.mu nests inside s.mu), so a Metrics
	// scrape can never see the counter bump without the gauge drop.
	s.metrics.finish(err, g.steps)
	if s.pending == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
	s.trace(-1, TraceEvent{
		Type: TraceFinish, Guest: g.ID, Cause: outcomeCause(err), Steps: g.steps,
	})
}
