package supervisor

import (
	"bytes"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// Lane selects a guest's scheduling class. Interactive guests are favored
// by the weighted round-robin pick (interactiveWeight) so short,
// latency-sensitive tenants are not stuck behind batch work — but batch
// guests still get a guaranteed share, so neither lane can starve the
// other.
type Lane int

const (
	// LaneBatch is the default: throughput-oriented, scheduled fairly.
	LaneBatch Lane = iota
	// LaneInteractive is the low-latency lane.
	LaneInteractive
)

// String names the lane.
func (l Lane) String() string {
	if l == LaneInteractive {
		return "interactive"
	}
	return "batch"
}

// Policy is the per-tenant resource contract the supervisor enforces.
type Policy struct {
	// Lane selects the scheduling class.
	Lane Lane
	// WallDeadline bounds the guest's total wall-clock lifetime, measured
	// from admission. It is a timer on the kill path that Guest.Kill takes:
	// at the deadline the guest dies with ErrDeadline wherever it is —
	// queued, asleep, or running, in a native callback that never yields
	// too — so an infinite loop dies without taking a worker with it. Zero
	// means no deadline.
	WallDeadline time.Duration
	// MaxTotalSteps bounds total statements executed across all quanta
	// (interp.ErrStepBudget — a hard, uncatchable abort). Zero means
	// unlimited.
	MaxTotalSteps uint64
	// MaxOutputBytes caps console output; exceeding it truncates the
	// output and kills the guest with ErrOutputLimit. Zero picks
	// DefaultMaxOutput.
	MaxOutputBytes int
	// MemBudgetBytes bounds the guest realm's allocation meter
	// (interp.ErrMemLimit — a hard, uncatchable abort at the next
	// statement boundary). The budget covers the guest program's own
	// Value-graph growth, not the runtime prelude, and like MaxTotalSteps
	// it is cumulative across quanta. Zero means unmetered.
	MemBudgetBytes uint64
}

// DefaultMaxOutput is the output cap applied when a policy leaves
// MaxOutputBytes zero.
const DefaultMaxOutput = 1 << 20

// State is a guest's position in the scheduling lifecycle.
type State int

const (
	// StateQueued: admitted and runnable, waiting for a worker.
	StateQueued State = iota
	// StateRunning: owned by a worker goroutine right now.
	StateRunning
	// StateSleeping: parked until its earliest timer comes due.
	StateSleeping
	// StatePaused: externally paused (Guest.Pause); not schedulable until
	// Guest.Resume.
	StatePaused
	// StateDone: finished — result available, Done() closed.
	StateDone
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StatePaused:
		return "paused"
	case StateDone:
		return "done"
	}
	return "invalid"
}

// Result is a finished guest's outcome.
type Result struct {
	// Output is the guest's console output, truncated at the policy's
	// output cap.
	Output string
	// Truncated reports whether Output hit the cap.
	Truncated bool
	// Err is the completion error: nil for normal completion, a *interp.
	// Thrown for an uncaught guest exception, ErrDeadline / ErrOutputLimit
	// / rt.ErrKilled / ErrShutdown / interp.ErrMemLimit for supervisor
	// terminations, interp.ErrStepBudget for an exhausted step budget, or
	// ErrInternalFault when the worker's recover barrier caught an engine
	// panic while this guest was running.
	Err error
	// Steps is the total statements executed.
	Steps uint64
	// Quanta is how many scheduling turns the guest received.
	Quanta int
	// Preemptions counts quantum-expiry parks (a subset of Quanta).
	Preemptions int
	// QueueWait is total time spent runnable-but-waiting.
	QueueWait time.Duration
	// WallTime is admission to completion.
	WallTime time.Duration
}

// Info is a point-in-time snapshot of a guest (Guest.Inspect) — the
// observability the serving façade exposes per run.
type Info struct {
	ID          uint64  `json:"id"`
	Lane        string  `json:"lane"`
	State       string  `json:"state"`
	Steps       uint64  `json:"steps"`
	Quanta      int     `json:"quanta"`
	Preemptions int     `json:"preemptions"`
	OutputBytes int     `json:"output_bytes"`
	Truncated   bool    `json:"output_truncated"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	Parked      bool    `json:"parked,omitempty"`
	Error       string  `json:"error,omitempty"`
	DeadlineMs  float64 `json:"deadline_remaining_ms,omitempty"`
}

// Guest is one supervised program: a compiled Stopify run plus the
// scheduling state the supervisor tracks for it. All fields behind mu;
// the embedded run's own control surface (rt) has its own locking.
type Guest struct {
	ID  uint64
	sup *Supervisor

	mu       sync.Mutex
	state    State
	lane     Lane
	pol      Policy
	compiled *core.Compiled
	run      *core.AsyncRun // created on the first scheduling turn
	out      *cappedWriter

	killReq  error // a running guest's kill, read by attach and at the turn's end
	pauseReq bool  // external pause request, consumed at the next park

	// Park state (the MaxResident residency limiter, park.go). A parked
	// guest has no realm: run is nil and the serialized snapshot lives in
	// parkBlob (or on disk at parkPath when ParkDir is set). replayOut marks
	// a guest admitted from an external blob (Supervisor.Restore), whose
	// carried output must be replayed into out on first restore.
	parked    bool
	parkBlob  []byte
	parkPath  string
	parkedAt  time.Time
	replayOut bool
	lastTurn  time.Time // when the guest last held a worker (LRU park order)

	submitted  time.Time
	deadline   time.Time // zero: none; Inspect reads it, deadlineTimer enforces it
	readySince time.Time // when the guest last became runnable
	queueWait  time.Duration
	steps      uint64
	quanta     int
	preempts   int
	sleepTimer *time.Timer

	// deadlineTimer kills the guest at its deadline. admit arms it and
	// finalizeLocked stops it, both under Supervisor.mu.
	deadlineTimer *time.Timer

	// profFolded accumulates the guest's sampling-profiler output across
	// turns (the worker harvests the realm after each quantum), so the
	// profile survives parks, restores, and the realm's destruction.
	profFolded map[string]uint64

	res    Result
	doneCh chan struct{}
}

// addProfile merges one turn's harvested folded-stack samples.
func (g *Guest) addProfile(folded map[string]uint64) {
	g.mu.Lock()
	if g.profFolded == nil {
		g.profFolded = make(map[string]uint64, len(folded))
	}
	for k, v := range folded {
		g.profFolded[k] += v
	}
	g.mu.Unlock()
}

// ProfileFolded returns a copy of the guest's accumulated sampling profile:
// ";"-joined JS call stacks (root first) mapped to sampled statement
// counts. Nil when profiling is off (Options.ProfileEvery == 0) or nothing
// has been sampled yet. Safe from any goroutine.
func (g *Guest) ProfileFolded() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return copyCounts(g.profFolded)
}

// FoldedText renders a folded-stack profile in the flamegraph collapsed
// format — one "stack count" line per stack, sorted by stack for
// deterministic output. A non-empty prefix is prepended to every stack
// (multi-tenant dumps prefix "guest<id>" so tenants stay distinguishable
// in one flamegraph).
func FoldedText(folded map[string]uint64, prefix string) []byte {
	stacks := make([]string, 0, len(folded))
	for k := range folded {
		stacks = append(stacks, k)
	}
	sort.Strings(stacks)
	var buf bytes.Buffer
	for _, k := range stacks {
		if prefix != "" {
			buf.WriteString(prefix)
			buf.WriteByte(';')
		}
		buf.WriteString(k)
		buf.WriteByte(' ')
		buf.WriteString(strconv.FormatUint(folded[k], 10))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Done returns a channel closed when the guest finishes.
func (g *Guest) Done() <-chan struct{} { return g.doneCh }

// Wait blocks until the guest finishes and returns its result.
func (g *Guest) Wait() Result {
	<-g.doneCh
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.res
}

// Result returns the outcome of a finished guest (zero Result before
// completion; check Done or State first).
func (g *Guest) Result() Result {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.res
}

// State reports the guest's current scheduling state.
func (g *Guest) State() State {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// Kill requests graceful termination with reason (rt.ErrKilled when nil).
// A guest a worker currently owns stops at its next preemption point; a
// parked guest is finalized immediately. Safe from any goroutine; no-op
// after completion.
func (g *Guest) Kill(reason error) {
	g.sup.killGuest(g, reason)
}

// Pause takes the guest off the scheduler: a queued or sleeping guest stops
// being schedulable immediately, a running one parks at its next preemption
// point. Safe from any goroutine.
func (g *Guest) Pause() {
	g.sup.pauseGuest(g)
}

// Resume makes an externally paused guest runnable again.
func (g *Guest) Resume() {
	g.sup.resumeGuest(g)
}

// Inspect snapshots the guest's scheduling state and counters. Step and
// output figures are as of the guest's last completed turn.
func (g *Guest) Inspect() Info {
	g.mu.Lock()
	defer g.mu.Unlock()
	info := Info{
		ID:          g.ID,
		Lane:        g.lane.String(),
		State:       g.state.String(),
		Steps:       g.steps,
		Quanta:      g.quanta,
		Preemptions: g.preempts,
		QueueWaitMs: float64(g.queueWait) / float64(time.Millisecond),
		Parked:      g.parked,
	}
	if g.out != nil {
		info.OutputBytes, info.Truncated = g.out.Stats()
	}
	if g.state == StateDone && g.res.Err != nil {
		info.Error = g.res.Err.Error()
	}
	if !g.deadline.IsZero() && g.state != StateDone {
		if rem := time.Until(g.deadline); rem > 0 {
			info.DeadlineMs = float64(rem) / float64(time.Millisecond)
		}
	}
	return info
}

// OutputSince returns a copy of the console output from byte offset off
// (clamped into the recorded range) plus the offset to resume from — the
// incremental read a streaming endpoint serves. Offsets are stable: the
// buffer is append-only until the guest is removed.
func (g *Guest) OutputSince(off int) ([]byte, int) {
	g.mu.Lock()
	out := g.out
	g.mu.Unlock()
	if out == nil {
		return nil, 0
	}
	return out.readFrom(off)
}

// OutputChanged returns a channel closed at the next output append. Fetch it
// BEFORE calling OutputSince — the read-then-wait order is what makes a
// follower lossless (a write landing between the two closes the channel the
// follower is about to select on).
func (g *Guest) OutputChanged() <-chan struct{} {
	g.mu.Lock()
	out := g.out
	g.mu.Unlock()
	if out == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return out.changed()
}

// cappedWriter is a guest's console sink: a bounded buffer whose overflow
// fires a one-shot callback (the supervisor kills the guest with
// ErrOutputLimit). Locked because controllers read output while the worker
// goroutine writes it.
type cappedWriter struct {
	mu         sync.Mutex
	max        int
	buf        []byte
	truncated  bool
	onOverflow func()
	notify     chan struct{} // closed and replaced on append (broadcast to followers)
}

func newCappedWriter(max int, onOverflow func()) *cappedWriter {
	if max <= 0 {
		max = DefaultMaxOutput
	}
	return &cappedWriter{max: max, onOverflow: onOverflow, notify: make(chan struct{})}
}

// Write implements io.Writer. It always reports success — the guest's
// console.log must not start erroring — but stops recording at the cap and
// triggers the overflow callback exactly once.
func (w *cappedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	room := w.max - len(w.buf)
	if room >= len(p) {
		if len(p) == 0 {
			w.mu.Unlock()
			return 0, nil
		}
		w.buf = append(w.buf, p...)
		note := w.notify
		w.notify = make(chan struct{})
		w.mu.Unlock()
		close(note)
		return len(p), nil
	}
	if room > 0 {
		w.buf = append(w.buf, p[:room]...)
	}
	first := !w.truncated
	w.truncated = true
	cb := w.onOverflow
	note := w.notify
	w.notify = make(chan struct{})
	w.mu.Unlock()
	close(note) // the truncation point itself is an event followers want
	if first && cb != nil {
		cb()
	}
	return len(p), nil
}

// String returns the recorded output.
func (w *cappedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf)
}

// Stats reports recorded length and whether the cap was hit.
func (w *cappedWriter) Stats() (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf), w.truncated
}

// Bytes returns a copy of the recorded output. Its presence is what lets
// core.AsyncRun.Snapshot carry a supervised guest's console output by value
// instead of pinning the guest on an opaque sink.
func (w *cappedWriter) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf...)
}

// readFrom copies the recorded output from byte offset off (clamped into
// range) and reports the offset to resume from.
func (w *cappedWriter) readFrom(off int) ([]byte, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if off < 0 {
		off = 0
	}
	if off > len(w.buf) {
		off = len(w.buf)
	}
	data := append([]byte(nil), w.buf[off:]...)
	return data, off + len(data)
}

// changed returns the current notification channel; it is closed (and
// replaced) by the next append.
func (w *cappedWriter) changed() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.notify
}
