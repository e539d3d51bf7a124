package rt

import (
	"repro/internal/ast"
	"repro/internal/eventloop"
	"repro/internal/interp"
)

// Snapshot support. A parked program is already first-class data — savedK
// plus everything reachable from it — except for one host-side leak: tasks
// sitting in the event loop are opaque Go closures. Each task the program
// owns is therefore posted with a serializable description (Loop.PostTask,
// Loop.PostTimer): an *interp.Timer for a setTimeout callback, a *Resume for
// a queued continuation restore. A snapshot lists them with Loop.Pending and
// Repost rebuilds the queue. A task posted without one — a Blocking resume,
// a debugger $bp park — pins the program unsnapshotable (the codec reports
// it as a typed error rather than silently dropping the task).

// Resume is a queued continuation restore: a $suspend yield or an external
// Resume that has been posted but has not run yet.
type Resume struct {
	Frames Frames
	Aux    bool // the turn tag to restore under
}

// postResume posts a continuation-restore task. The task honors a pause
// request that arrived while it was queued by parking instead of running —
// the same semantics as the $suspend yield it usually is. While the runtime
// owns its frames (the ownership rule of DESIGN_interp.md "One array") and
// no resume of its own is queued, the Resume and the task are the runtime's
// one pair, reused, so a preemption posts without allocating; otherwise a
// new pair.
func (r *R) postResume(frames Frames, aux bool, delay float64) {
	r.mu.Lock() // Resume may post from another goroutine
	d, task := r.resume, r.resumeTask
	own := !r.resumeBusy && !r.poll.Shared
	if !own || d == nil {
		d = &Resume{}
		task = func() { r.runResume(d) }
	}
	if own {
		r.resume, r.resumeTask, r.resumeBusy = d, task, true
	}
	*d = Resume{Frames: frames, Aux: aux}
	r.mu.Unlock()
	r.Loop.PostTask(task, delay, d)
}

// runResume is the task postResume posted for d: once it has read d, d is
// free for the next post.
func (r *R) runResume(d *Resume) {
	r.mu.Lock()
	frames, aux := d.Frames, d.Aux
	if d == r.resume {
		*d, r.resumeBusy = Resume{}, false
	}
	r.mu.Unlock()
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
}

// Repost rebuilds a snapshot's pending tasks in a restored runtime, in
// original post order, timers under their handles. elapsedMs is wall time
// that passed between snapshot and restore: due-offsets shrink by it (a
// task whose offset it exceeds is due at once), so a parked guest's timers
// fire on schedule rather than restarting their full delay.
func (r *R) Repost(tasks []eventloop.Pending, elapsedMs float64) {
	for _, t := range tasks {
		delay := t.Due - elapsedMs
		switch d := t.Desc.(type) {
		case *interp.Timer:
			r.In.PostTimer(t.Handle, d, delay)
		case *Resume:
			r.postResume(d.Frames, d.Aux, delay)
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
// an adopted runtime — the caller reposts the pending tasks and either Resumes (if
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

// ModeNormal reports whether the runtime is in normal mode — the only mode
// a consistent snapshot can be taken in (capture/restore are transient
// within a turn and never survive to a quiescent point).
func (r *R) ModeNormal() bool { return r.In.Mode == ast.ModeNormal }
