package rt

import (
	"repro/internal/instrument"
	"repro/internal/interp"
)

// Snapshot support. A parked program is already first-class data — savedK
// plus everything reachable from it — except for one host-side leak: tasks
// sitting in the event loop are opaque Go closures. The runtime therefore
// keeps a ledger of every task *it* posts, as serializable descriptors
// (timer callbacks by Value, queued resumes by Frames), so a snapshot can
// enumerate the queue and a restore can rebuild it. A task the runtime did
// not post — a Blocking resume, a debugger $bp park — has no descriptor,
// and its presence pins the program unsnapshotable (the codec reports the
// mismatch as a typed error rather than silently dropping the task).

// TaskKind discriminates ledger entries.
type TaskKind uint8

const (
	// TaskTimer is a setTimeout callback: (callback Value, due offset).
	TaskTimer TaskKind = iota + 1
	// TaskResume is a queued continuation restore: a $suspend yield or an
	// external Resume that has been posted but has not run yet.
	TaskResume
)

// LedgerEntry describes one pending event-loop task in serializable form.
// In PendingTasks output, Due is an offset in milliseconds relative to the
// loop clock at the time of the call (clamped to ≥ 0); entries are ordered
// by original post order, which together with the loop's (due, seq) sort
// reproduces the source queue's FIFO-among-due ordering on restore.
type LedgerEntry struct {
	Kind   TaskKind
	Fn     interp.Value   // TaskTimer: the callback
	Args   []interp.Value // TaskTimer: extra setTimeout args, forwarded to Fn
	Frames Frames         // TaskResume: the continuation
	Aux    bool           // TaskResume: the turn tag to restore under
	Due    float64

	// TimerID is the guest-visible setTimeout handle (clearTimeout's key);
	// Cancelled marks a cleared timer whose queued loop task will fire as a
	// no-op. The entry stays in the ledger after clearTimeout — removing it
	// would desync Loop.Len() from the ledger and false-pin the snapshot —
	// so cancellation records ride the serialized pending-task list.
	TimerID   uint64
	Cancelled bool

	seq uint64
}

// postTimer posts a ledgered setTimeout callback task. The caller fills
// Fn/Args/TimerID (and Cancelled, when reposting a cleared timer from a
// snapshot).
func (r *R) postTimer(e LedgerEntry, delay float64) {
	e.Kind = TaskTimer
	e.Aux = true
	fn, fnArgs := e.Fn, e.Args
	r.postTracked(e, delay, func(cancelled bool) {
		if cancelled {
			return
		}
		r.curAux = true
		r.runStep(func() (interp.Value, error) {
			return r.In.Call(fn, interp.Undefined, fnArgs, interp.Undefined)
		})
	})
}

// postResume posts a ledgered continuation-restore task. The task honors a
// pause request that arrived while it was queued by parking instead of
// running — the same semantics as the $suspend yield it usually is.
func (r *R) postResume(frames Frames, aux bool, delay float64) {
	r.postTracked(LedgerEntry{Kind: TaskResume, Frames: frames, Aux: aux}, delay, func(bool) {
		if r.poll.Pause.Load() {
			r.poll.Pause.Store(false)
			r.mu.Lock()
			if kerr := r.killErr; kerr != nil {
				// A kill arrived while this resume was queued. Parking now
				// would strand it: no guest code runs while parked, and
				// Kill's synchronous paused-finish path already ran before
				// we flipped paused back on. Finish here instead.
				r.paused = false
				r.savedK = nil
				r.mu.Unlock()
				r.finish(interp.Undefined, kerr)
				return
			}
			r.paused = true
			r.savedK = frames
			r.savedAux = aux
			cb := r.onPause
			r.mu.Unlock()
			if cb != nil {
				cb()
			}
			return
		}
		r.curAux = aux
		r.startRestore(true, frames, interp.Undefined)
	})
}

// postTracked records e in the ledger, posts run, and removes the entry
// when the task starts. Due is recorded absolute (loop-clock domain) and
// converted to an offset by PendingTasks. The entry's Cancelled flag —
// which clearTimeout may set while the task is queued — is read under mu at
// fire time and handed to run.
func (r *R) postTracked(e LedgerEntry, delay float64, run func(cancelled bool)) {
	if delay < 0 {
		delay = 0
	}
	r.mu.Lock()
	r.ledgerSeq++
	id := r.ledgerSeq
	e.seq = id
	e.Due = r.Loop.Clock.Now() + delay
	r.ledger[id] = &e
	r.mu.Unlock()
	r.Loop.Post(func() {
		r.mu.Lock()
		cancelled := r.ledger[id] != nil && r.ledger[id].Cancelled
		delete(r.ledger, id)
		r.mu.Unlock()
		run(cancelled)
	}, delay)
}

// nextTimerID issues the next guest-visible setTimeout handle (starting at
// 1, matching the raw interpreter's sequence exactly).
func (r *R) nextTimerID() uint64 {
	r.mu.Lock()
	r.timerSeq++
	id := r.timerSeq
	r.mu.Unlock()
	return id
}

// cancelTimer marks the pending timer with guest handle id cancelled; its
// queued loop task fires as a no-op. Unknown or already-fired IDs are
// ignored, as clearTimeout is.
func (r *R) cancelTimer(id uint64) {
	r.mu.Lock()
	for _, e := range r.ledger {
		if e.Kind == TaskTimer && e.TimerID == id {
			e.Cancelled = true
		}
	}
	r.mu.Unlock()
}

// TimerSeq reports the last issued setTimeout handle, for the snapshot
// header; SetTimerSeq restores it so a restored guest keeps issuing unique,
// deterministic IDs.
func (r *R) TimerSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timerSeq
}

// SetTimerSeq seeds the setTimeout handle counter (snapshot restore).
func (r *R) SetTimerSeq(n uint64) {
	r.mu.Lock()
	r.timerSeq = n
	r.mu.Unlock()
}

// PendingTasks returns the ledgered pending tasks in post order, Due
// rewritten as a non-negative offset from the loop clock's current time.
// The caller compares len(PendingTasks()) against Loop.Len() to detect
// unledgered (host-posted, unsnapshotable) tasks.
func (r *R) PendingTasks() []LedgerEntry {
	now := r.Loop.Clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LedgerEntry, 0, len(r.ledger))
	for _, e := range r.ledger {
		out = append(out, *e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].seq > out[j].seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	for i := range out {
		if off := out[i].Due - now; off > 0 {
			out[i].Due = off
		} else {
			out[i].Due = 0
		}
	}
	return out
}

// RepostLedger rebuilds a snapshot's pending-task queue in a restored
// runtime, in original post order. elapsedMs is wall time that passed
// between snapshot and restore: timer due-offsets shrink by it (never below
// zero), so a parked guest's timers fire on schedule rather than restarting
// their full delay.
func (r *R) RepostLedger(entries []LedgerEntry, elapsedMs float64) {
	for _, e := range entries {
		delay := e.Due - elapsedMs
		if delay < 0 {
			delay = 0
		}
		switch e.Kind {
		case TaskTimer:
			// Reposted wholesale, cancellation flag included: a cancelled
			// timer stays a ledgered no-op until its due time, exactly as in
			// the source process.
			r.postTimer(e, delay)
		case TaskResume:
			r.postResume(e.Frames, e.Aux, delay)
		}
	}
}

// ParkState is the runtime's serializable control state, read at a
// quiescent point (parked, or between turns with no guest code running).
type ParkState struct {
	Paused bool   // parked at a yield: Frames/Aux hold the saved turn
	Frames Frames // savedK (nil unless Paused)
	Aux    bool
	Done   bool // main chain completed (the loop may still drain timers)
}

// SnapshotState reads the park state. The caller guarantees quiescence (no
// goroutine is executing guest code); mu covers the control fields.
func (r *R) SnapshotState() ParkState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ParkState{Paused: r.paused, Frames: r.savedK, Aux: r.savedAux, Done: r.done}
}

// AdoptParked places a freshly built runtime into a decoded snapshot's
// control state: paused with a saved continuation, mid-flight between
// turns, or done (main finished, timers draining). Run is never called on
// an adopted runtime — the caller reposts the ledger and either Resumes (if
// paused) or just pumps the loop.
func (r *R) AdoptParked(st ParkState, onDone func(interp.Value, error)) {
	r.contain = true
	r.mu.Lock()
	r.onDone = onDone
	r.done = st.Done
	r.paused = st.Paused
	r.savedK = st.Frames
	r.savedAux = st.Aux
	r.mu.Unlock()
}

// NewBottomNative builds the native that terminates a restored stack: the fn
// of this runtime's bottom frame, and of every bottom frame the snapshot
// decoder rebuilds, so a decoded one re-enters exactly like the original.
func (r *R) NewBottomNative() *interp.Object {
	return r.In.NewNative("$bottom", r.bottomReenter)
}

// RestoredContinuation allocates a continuation object whose frames are
// supplied later, so the decoder can materialize the object first (other
// decoded values may reference it, including its own frames — continuation
// graphs are cyclic) and fill the frames once every node exists.
func (r *R) RestoredContinuation() (k *interp.Object, fill func(Frames)) {
	var frames Frames
	k = r.In.NewNative("continuation", func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		v := interp.Undefined
		if len(args) > 0 {
			v = args[0]
		}
		return interp.Undefined, &interp.Thrown{Value: interp.ObjectValue(r.restoreSentinel(frames, v))}
	})
	return k, func(f Frames) {
		frames = f
		k.Extra = f
	}
}

// ModeNormal reports whether the runtime is in normal mode — the only mode
// a consistent snapshot can be taken in (capture/restore are transient
// within a turn and never survive to a quiescent point).
func (r *R) ModeNormal() bool { return r.mode == instrument.ModeNormal }
