// Package rt is the Stopify runtime system: the driver loop that manages
// the normal/capture/restore execution modes (§3.1), first-class
// continuation values, the elapsed-time estimators of §5.1, pause/resume
// and breakpoints (§5.2), simulated blocking calls, and segmented restore —
// the mechanism behind deep stacks (§5.2).
//
// Instrumented programs talk to the runtime through its intrinsics
// (ast.Intrinsic) — the mode $mode, the frame arrays $stack, $rstack and
// $shadow, and natives such as $suspend, $bp, $isSig and $isCap, which New
// puts in the realm's table (interp.Poll), out of any guest binding's reach —
// and through $C, the one global New defines.
package rt

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/ast"
	"repro/internal/eventloop"
	"repro/internal/instrument"
	"repro/internal/interp"
)

// ErrKilled reports a program that was gracefully terminated from outside
// (R.Kill): execution stopped at a yield point and unwound without running
// any further guest code. It is a plain Go error, not a Thrown, so guest
// try/catch can never intercept it — the uncatchability the paper's
// graceful termination promises (§2).
var ErrKilled = errors.New("stopify: killed")

// Options configures a runtime instance.
type Options struct {
	// Instrument is what the program was instrumented under, the one
	// source of the sub-language the runtime must match: its Strategy
	// decides how a capture unwinds, and under ArgsVarargs a frame carries
	// its arguments object, which a segment's re-entry passes on.
	Instrument instrument.Options

	// YieldIntervalMs is δ: the desired interval between yields to the
	// event loop. Zero or negative disables time-based yielding (the
	// program still yields for pauses, breakpoints, and deep stacks).
	YieldIntervalMs float64
	Estimator       EstimatorKind
	// CountdownN is the fixed call budget for the countdown estimator.
	CountdownN int

	// DeepStacks bounds native stack growth by capturing and resuming on an
	// empty stack whenever the interpreter is past half its depth limit.
	DeepStacks bool

	// Debug enables $bp: breakpoints and single-stepping.
	Debug bool
}

// Frames is a reified continuation: canonical order holds the bottom frame
// (which ends restoration) at index 0 and the outermost caller last.
type Frames []interp.Value

// R is one runtime instance, bound to an interpreter realm and event loop.
type R struct {
	In   *interp.Interp
	Loop *eventloop.Loop

	opts Options
	// hold: the capture or restore under way is the scheduler's ($suspend, $bp,
	// the resume after one and its segments), so setMode keeps it off the
	// quantum; what the guest starts ($C, a continuation, Blocking) it pays for.
	hold bool

	stackObj  *interp.Object // $stack: capture-order frames (checked/exceptional)
	rstackObj *interp.Object // $rstack: frames being re-entered
	shadowObj *interp.Object // $shadow: eager live stack

	// bottom terminates a restored segment. Re-entering it reads restoreValue
	// and restoreThrow, nothing of its own: one serves the runtime (bottomFrame).
	bottom interp.Value

	onCaptureAction func(Frames)
	pendingOuter    Frames // callers yet to re-enter: a view into the continuation being restored
	restoreValue    interp.Value
	restoreThrow    error
	restoreDepth    int  // live startRestore nesting on the Go stack
	contain         bool // adopted from a snapshot: recover guest-turn panics

	// segStep is the step enterSegment returns, r.reenterSegment bound once;
	// yielded is $suspend's capture action, r.postYield bound once.
	segStep func() (interp.Value, error)
	yielded func(Frames)

	// kbuf backs the last continuation finishCapture built, which ends where
	// it does; kdead: that one is the runtime's alone and being restored, so
	// what lies in front of pendingOuter is on $rstack or gone.
	kbuf  Frames
	kdead bool

	est estimator

	// poll is lent to the realm (interp.Poll): it holds the intrinsics, its
	// Pause and Kill are the requests Pause and Kill arm, and its budget lets
	// a $suspend site skip calls that would return at once — armed is the
	// budget $suspend last set, so that armed - poll.Budget calls were
	// skipped since.
	poll  interp.Poll
	armed int

	// mu guards the externally touchable control state: everything the
	// pause/kill/breakpoint API reads or writes from goroutines other than
	// the one pumping the event loop. The execution-mode machinery above
	// (the mode, the frame arrays, capture/restore state) is deliberately
	// outside it — only the executing goroutine touches it, and a yield
	// point is the only place control transfers.
	mu       sync.Mutex
	killErr  error // under mu; the reason Kill recorded
	paused   bool  // under mu
	savedK   Frames
	savedAux bool // under mu; the parked turn's aux tag
	// resume is the runtime's one reusable Resume and resumeTask the task
	// that runs it, both made at the first post (postResume); resumeBusy:
	// it is queued. Under mu, as is poll.Shared's write: Resume may post
	// from another goroutine.
	resumeBusy bool
	resume     *Resume
	resumeTask func()
	onPause    func()

	// curAux tags the turn the driver is currently executing. The main chain —
	// Run's initial task and every capture/restore descended from it — is
	// aux=false; its completion finishes the program. Timer callbacks
	// (runTimer) are aux=true turns: they share the whole capture/restore
	// machinery, but completing one just ends that turn. The tag rides along
	// through yields: a capture taken inside a callback restores as a callback.
	// (A continuation captured on one chain and applied on the other keeps the
	// applying turn's tag: first-class cross-turn control transfer has no
	// single right answer.) Only the pumping goroutine touches it.
	curAux bool

	breakpoints map[int]bool
	stepping    bool
	currentLine int
	onBreak     func(line int)

	onDone func(interp.Value, error)
	done   bool // under mu

	// Stats observable by the harness.
	Yields   int
	Captures int
	Restores int
}

// New fills the realm's intrinsic table with the runtime's arrays and
// natives, defines $C and returns the runtime.
func New(in *interp.Interp, loop *eventloop.Loop, opts Options) *R {
	if opts.CountdownN <= 0 {
		opts.CountdownN = 100000
	}
	r := &R{In: in, Loop: loop, opts: opts, breakpoints: map[int]bool{}}
	in.SetPoll(&r.poll)
	r.stackObj = in.NewArray(nil)
	r.rstackObj = in.NewArray(nil)
	r.shadowObj = in.NewArray(nil)
	r.poll.Intrinsics[ast.IntrinsicStack] = r.stackObj
	r.poll.Intrinsics[ast.IntrinsicRStack] = r.rstackObj
	r.poll.Intrinsics[ast.IntrinsicShadow] = r.shadowObj
	r.setMode(ast.ModeNormal)

	if opts.YieldIntervalMs > 0 {
		switch opts.Estimator {
		case Exact:
			r.est = &exactEst{clock: in.Clock, delta: opts.YieldIntervalMs, last: in.Clock.Now()}
		case Countdown:
			r.est = &countdownEst{n: opts.CountdownN, counter: opts.CountdownN}
		default:
			r.est = newApproxEst(in.Clock, opts.YieldIntervalMs, sampleMs)
		}
	}

	r.installNatives()
	in.RunTimer = r.runTimer
	return r
}

// setMode switches the execution mode, the realm's (interp.Interp.Mode, what
// `$mode` reads). Statements that unwind or rebuild a stack are continuation
// machinery, not the guest's progress: the profiler files them under a phase,
// and the quantum is held for those the scheduler caused (r.hold), so a
// quantum of n is n normal-mode statements at any stack depth.
func (r *R) setMode(m ast.Mode) {
	r.In.Mode = m
	r.In.SetProfilePhase(modePhase[m])
	r.In.HoldQuantum(r.hold && m != ast.ModeNormal)
}

var modePhase = [...]string{ast.ModeCapture: "(capture)", ast.ModeRestore: "(restore)"}

// Done reports whether the program has completed. Safe from any goroutine.
func (r *R) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// Paused reports whether the program is suspended awaiting Resume. Safe
// from any goroutine.
func (r *R) Paused() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.paused
}

// CurrentLine reports the last $bp line executed (original source line).
func (r *R) CurrentLine() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.currentLine
}

// ---------------------------------------------------------------------------
// Signals and continuation values
// ---------------------------------------------------------------------------

type restoreData struct {
	frames Frames
	value  interp.Value
}

func (r *R) restoreSentinel(frames Frames, v interp.Value) *interp.Object {
	o := &interp.Object{Class: interp.ClassRestoreSignal}
	o.SetExtra(&restoreData{frames: frames, value: v})
	return o
}

func isSignal(v interp.Value) (*interp.Object, bool) {
	o := v.Obj()
	if o == nil {
		return nil, false
	}
	if o.Class == interp.ClassCaptureSignal || o.Class == interp.ClassRestoreSignal {
		return o, true
	}
	return nil, false
}

// NewContinuation allocates a continuation — a callable JS value: applying
// it aborts the current continuation (by throwing a restore sentinel the
// driver catches) and reinstates the saved one (§3) — whose frames fill
// supplies. $C fills it at once; the snapshot decoder materializes the
// object first (other decoded values may reference it, including its own
// frames — continuation graphs are cyclic) and fills it once every node
// exists.
func (r *R) NewContinuation() (k *interp.Object, fill func(Frames)) {
	r.share()
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
		k.SetExtra(f)
	}
}

// share ends the runtime's sole ownership of its frames, for good: once a
// continuation may be applied twice, no restore pools its frames
// (interp.Poll) and no capture writes into the continuation it restored.
func (r *R) share() {
	r.mu.Lock()
	r.poll.Shared = true
	r.mu.Unlock()
	r.poll.Pool, r.kdead = nil, false
}

// ContinuationFrames extracts the frames from a continuation value made by
// NewContinuation (used by the blocking API and tests).
func ContinuationFrames(k *interp.Object) (Frames, bool) {
	f, ok := k.Extra().(Frames)
	return f, ok
}

func (r *R) bottomFrame() interp.Value {
	if !r.bottom.IsObject() {
		// It holds every element a restore arm reads, self and varargs'
		// args, so that none reads through Array.prototype.
		frame := []interp.Value{interp.NumberValue(0), interp.ObjectValue(r.NewBottomNative()), interp.Undefined, interp.Undefined}
		r.bottom = interp.ObjectValue(r.In.NewArray(frame))
	}
	return r.bottom
}

// bottomReenter is the $bottom native's body — the fn of the frame that
// terminates restoration: re-entering it flips execution back to normal mode
// and produces the restore value (or re-raises a pending exception when a
// segment is resumed in throw mode). The snapshot decoder builds decoded
// bottom frames around the same body (NewBottomNative).
func (r *R) bottomReenter(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
	if n := len(r.rstackObj.Elems); n > 0 {
		r.rstackObj.Elems[n-1] = interp.Undefined
		r.rstackObj.Elems = r.rstackObj.Elems[:n-1]
	}
	r.setMode(ast.ModeNormal)
	if r.restoreThrow != nil {
		t := r.restoreThrow
		r.restoreThrow = nil
		return interp.Undefined, t
	}
	return r.restoreValue, nil
}

// ---------------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------------

// beginCapture arms a capture: it records what to do with the continuation
// once the stack has unwound. The calling native then returns normally
// (checked) or throws the capture sentinel (exceptional/eager). Unwinding code
// pushes frames on $stack, innermost first after the bottom; eager's are on $shadow.
func (r *R) beginCapture(hold bool, onCapture func(Frames)) {
	r.Captures++
	r.hold = hold
	r.onCaptureAction = onCapture
	r.stackObj.Elems = append(r.stackObj.Elems[:0], r.bottomFrame())
	r.setMode(ast.ModeCapture)
}

// captureReturn produces the value/error a capturing native returns so the
// unwind proceeds per strategy.
func (r *R) captureReturn() (interp.Value, error) {
	if r.opts.Instrument.Strategy == instrument.Checked {
		return interp.Undefined, nil
	}
	return interp.Undefined, &interp.Thrown{Value: interp.ObjectValue(&interp.Object{Class: interp.ClassCaptureSignal})}
}

// finishCapture runs once the stack has fully unwound to the driver: it
// assembles the canonical continuation — the frames that were live, then the
// outer view still pending from a segmented restore — and hands it to the
// armed action. When the continuation being restored is the runtime's own
// (kdead) and the live frames fit in front of that view, where its frames
// already moved to $rstack were, they go there, so a preemption costs the
// live frames at any depth; otherwise to a new array, with a segment's
// headroom in front while the runtime owns its frames.
func (r *R) finishCapture() {
	live, shadow, tail := r.stackObj.Elems, r.shadowObj.Elems, r.pendingOuter
	n := len(live) + len(shadow)
	var frames Frames
	if off := len(r.kbuf) - len(tail); r.kdead && off >= n {
		frames = r.kbuf[off-n:]
	} else {
		head := restoreSegment
		if r.poll.Shared {
			head = 0
		}
		r.kbuf = make(Frames, head+n+len(tail))
		frames = r.kbuf[head:]
		copy(frames[n:], tail)
	}
	copy(frames, live)
	for i, f := range shadow {
		frames[n-1-i] = f
	}
	r.pendingOuter, r.kdead = nil, false
	clear(r.stackObj.Elems)
	r.stackObj.Elems = r.stackObj.Elems[:0]
	r.shadowObj.Elems = r.shadowObj.Elems[:0]
	r.setMode(ast.ModeNormal)
	act := r.onCaptureAction
	r.onCaptureAction = nil
	act(frames)
}

// ---------------------------------------------------------------------------
// Restore (with segmentation — deep stacks)
// ---------------------------------------------------------------------------

// maxRestoreDepth bounds how deep startRestore may nest on the Go stack.
// Restores recurse through afterStep (continuation applications within one
// turn), and a cyclic continuation — constructible only from a corrupt
// snapshot blob, since guests cannot forge Frames — would otherwise recurse
// forever without consuming guest steps, overflowing the engine stack before
// MaxSteps or the preemption watchdog can act.
const maxRestoreDepth = 32768

// restoreSegment is how many frames, bottom included, one native stack
// excursion re-enters; the callers beyond follow as inner segments return. A
// resume re-executes one segment's prologues and the next capture unwinds
// only the frames then live, so a preemption costs O(segment) at any depth.
// DESIGN_interp.md "Frames" keeps the measured curve behind the value.
const restoreSegment = 16

// startRestore reinstates a continuation: frames[0] is its bottom frame, the
// rest its callers, innermost first. Its segments inherit hold (R.hold).
func (r *R) startRestore(hold bool, frames Frames, v interp.Value) {
	if len(frames) == 0 {
		frames = Frames{r.bottomFrame()}
	}
	if r.restoreDepth >= maxRestoreDepth {
		r.finish(interp.Undefined, r.In.Throw("Error", "continuation restore depth exceeded (cyclic or corrupt continuation)"))
		return
	}
	r.restoreDepth++
	defer func() { r.restoreDepth-- }()
	r.hold = hold
	k := len(r.kbuf) - len(frames)
	r.kdead = !r.poll.Shared && k >= 0 && &r.kbuf[k] == &frames[0]
	r.runStep(r.enterSegment(frames[0], frames[1:], v, nil))
}

// enterSegment readies the innermost restoreSegment frames of a continuation
// — bottom, then callers from the inside out — and returns the step that
// re-enters them. The callers beyond wait in pendingOuter for the segment to
// complete (afterStep): no restore and no capture reads or writes them (§5.2).
func (r *R) enterSegment(bottom interp.Value, callers Frames, v interp.Value, throwErr error) func() (interp.Value, error) {
	r.Restores++
	r.stackObj.Elems = r.stackObj.Elems[:0]
	r.shadowObj.Elems = r.shadowObj.Elems[:0]
	n := min(len(callers), restoreSegment-1)
	r.pendingOuter = callers[n:]
	r.restoreValue = v
	r.restoreThrow = throwErr
	r.rstackObj.Elems = append(append(r.rstackObj.Elems[:0], bottom), callers[:n]...)
	r.setMode(ast.ModeRestore)

	if r.segStep == nil {
		r.segStep = r.reenterSegment
	}
	return r.segStep
}

// reenterSegment re-enters the segment's outermost frame, which runStep's
// call finds still on top of $rstack, as a call site's restore arm does: it
// applies the frame's fn to its self, and to the args the varargs
// sub-language stores. A corrupt blob's frame fails as a guest TypeError.
func (r *R) reenterSegment() (interp.Value, error) {
	top, parts := r.rstackObj.Elems[len(r.rstackObj.Elems)-1], 2
	if r.opts.Instrument.Args == instrument.ArgsVarargs {
		parts = 3
	}
	var part [3]interp.Value
	for i := range parts {
		v, err := r.In.GetMember(top, strconv.Itoa(instrument.FrameFn+i))
		if err != nil {
			return interp.Undefined, err
		}
		part[i] = v
	}
	var args []interp.Value
	if part[2].IsObject() {
		// A copy: the callee reads args in place, and this object is the guest's.
		args = append(args, part[2].Obj().Elems...)
	}
	return r.In.Call(part[0], part[1], args, interp.Undefined)
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

// Run schedules fn (typically $main) on the event loop and reports the
// final result through onDone. The caller pumps the loop.
func (r *R) Run(fn interp.Value, onDone func(interp.Value, error)) {
	r.mu.Lock()
	r.onDone = onDone
	r.done = false
	r.mu.Unlock()
	r.Loop.Post(func() {
		r.curAux = false
		r.runStep(func() (interp.Value, error) {
			return r.In.Call(fn, interp.Undefined, nil, interp.Undefined)
		})
	}, 0)
}

// runTimer runs a due setTimeout callback under the driver, so yields,
// pauses, kills and quantum preemption work inside it exactly as inside
// $main; a direct call would strand a capture begun in the callback, whose
// unwound sentinel would have no driver to land on. A callback completing
// after the program finished is a no-op (finish is idempotent); an error it
// raises then is dropped, as browsers drop late uncaught exceptions.
func (r *R) runTimer(fn interp.Value, args []interp.Value) {
	r.curAux = true
	r.runStep(func() (interp.Value, error) {
		return r.In.Call(fn, interp.Undefined, args, interp.Undefined)
	})
}

// runStep executes one synchronous slice of the program and dispatches on
// how it ended. Restored runtimes additionally contain panics: a snapshot
// blob that decodes cleanly can still encode a semantically inconsistent
// graph (a closure paired with a wrong-layout environment chain, say) whose
// execution faults deep inside the interpreter, and Restore is documented
// as safe on untrusted cross-process blobs. Fresh runs keep panicking
// loudly — there a panic is an engine bug, not hostile input.
func (r *R) runStep(invoke func() (interp.Value, error)) {
	if r.contain {
		defer func() {
			if p := recover(); p != nil {
				r.finish(interp.Undefined, fmt.Errorf("stopify: internal fault in restored guest: %v", p))
			}
		}()
	}
	// A segment that returns into pending outer frames continues here: the
	// Go stack does not grow with the segments a deep recursion returns through.
	for invoke != nil {
		v, err := invoke()
		invoke = r.afterStep(v, err)
	}
}

// afterStep dispatches on how a slice ended. When the slice was a restored
// segment with outer frames still pending, it returns the step that resumes
// the next segment with this one's completion (a value or an exception).
func (r *R) afterStep(v interp.Value, err error) (next func() (interp.Value, error)) {
	if err != nil {
		if t, ok := err.(*interp.Thrown); ok {
			if sig, isSig := isSignal(t.Value); isSig {
				switch sig.Class {
				case interp.ClassCaptureSignal:
					r.finishCapture()
					return nil
				case interp.ClassRestoreSignal:
					data := sig.Extra().(*restoreData)
					r.pendingOuter = nil // the applied continuation replaces it
					r.startRestore(false, data.frames, data.value)
					return nil
				}
			}
			// An ordinary exception escaping this segment propagates into
			// the pending outer frames, or terminates the program.
			if len(r.pendingOuter) > 0 {
				return r.enterSegment(r.bottomFrame(), r.pendingOuter, interp.Undefined, t)
			}
		}
		// A kill or an exhausted budget can land mid-restore: the outer
		// frames die with this turn rather than wait for a later one.
		r.pendingOuter = nil
		r.finish(interp.Undefined, err)
		return nil
	}
	if r.In.Mode == ast.ModeCapture {
		// Checked-return unwinding completed.
		r.finishCapture()
		return nil
	}
	if len(r.pendingOuter) > 0 {
		return r.enterSegment(r.bottomFrame(), r.pendingOuter, v, nil)
	}
	// An auxiliary turn (timer callback) completing just ends the turn; only
	// the main chain's completion finishes the program.
	if !r.curAux {
		r.finish(v, nil)
	}
	return nil
}

// finish completes the program (idempotent). It touches no execution-goroutine
// state: Kill may invoke it from a controller goroutine while an auxiliary
// timer turn still executes guest code, so anything outside mu (pendingOuter,
// mode, the interpreter) is off limits. pendingOuter needs no clearing: it
// never survives a task (runStep's loop consumes segments, a pause folds them
// into savedK, afterStep drops them on a terminal error).
func (r *R) finish(v interp.Value, err error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	cb := r.onDone
	r.mu.Unlock()
	if cb != nil {
		cb(v, err)
	}
}

// ---------------------------------------------------------------------------
// Execution-control API (§2, Figure 1)
// ---------------------------------------------------------------------------

// Pause requests suspension at the next yield point; onPause runs once the
// program has stopped. Safe to call from other goroutines.
func (r *R) Pause(onPause func()) {
	r.mu.Lock()
	r.onPause = onPause
	r.mu.Unlock()
	r.poll.Pause.Store(true)
}

// Resume restarts a paused program by posting the saved continuation's
// restoration to the event loop. Safe to call from other goroutines — the
// restore itself runs on whichever goroutine pumps the loop.
func (r *R) Resume() {
	r.mu.Lock()
	if !r.paused {
		r.mu.Unlock()
		return
	}
	r.paused = false
	frames := r.savedK
	aux := r.savedAux
	r.savedK = nil
	r.mu.Unlock()
	r.postResume(frames, aux, 0)
}

// Kill gracefully terminates the program: a running program stops at its
// next yield point and completes with reason (ErrKilled when reason is
// nil); a paused program is finished immediately, its saved continuation
// discarded. The error is not a JavaScript exception, so guest code cannot
// catch it. Safe from any goroutine; Kill after completion is a no-op.
func (r *R) Kill(reason error) {
	if reason == nil {
		reason = ErrKilled
	}
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	if r.killErr == nil {
		r.killErr = reason
	}
	if r.paused {
		// Parked at a yield point: no goroutine is executing guest code,
		// so finish synchronously on the caller.
		r.paused = false
		r.savedK = nil
		reason = r.killErr
		r.mu.Unlock()
		r.finish(interp.Undefined, reason)
		return
	}
	r.mu.Unlock()
	r.poll.Kill.Store(true)
}

// killReason consumes the armed kill, returning its error.
func (r *R) killReason() error {
	r.poll.Kill.Store(false)
	r.mu.Lock()
	reason := r.killErr
	r.mu.Unlock()
	if reason == nil {
		reason = ErrKilled
	}
	return reason
}

// SetBreakpoint arms a breakpoint on an original source line.
func (r *R) SetBreakpoint(line int) {
	r.mu.Lock()
	r.breakpoints[line] = true
	r.mu.Unlock()
}

// ClearBreakpoint removes a breakpoint.
func (r *R) ClearBreakpoint(line int) {
	r.mu.Lock()
	delete(r.breakpoints, line)
	r.mu.Unlock()
}

// StepOnce resumes and stops again at the next statement.
func (r *R) StepOnce(onBreak func(line int)) {
	r.mu.Lock()
	r.stepping = true
	r.onBreak = onBreak
	r.mu.Unlock()
	r.Resume()
}

// OnBreak registers the breakpoint-hit callback.
func (r *R) OnBreak(fn func(line int)) {
	r.mu.Lock()
	r.onBreak = fn
	r.mu.Unlock()
}

// ResumeFromBreak continues after a breakpoint without stepping.
func (r *R) ResumeFromBreak() {
	r.mu.Lock()
	r.stepping = false
	r.mu.Unlock()
	r.Resume()
}

// Blocking registers a native that simulates a blocking operation (§5.2):
// calling name(args...) from JS suspends the program, invokes start with
// the arguments and a resume callback, and continues with the value passed
// to resume — which may happen after timers or external events. Inside a
// native callback (a sort comparator, a valueOf, an accessor: interp's
// callBack) the suspension cannot unwind through the native frame, so the
// call throws instead, as $C does.
func (r *R) Blocking(name string, start func(args []interp.Value, resume func(interp.Value))) {
	r.In.DefineGlobal(name, interp.ObjectValue(r.In.NewNative(name, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if in.InAtomic() {
			return interp.Undefined, in.Throw("Error", "cannot block inside a native callback")
		}
		saved := append([]interp.Value(nil), args...)
		aux := r.curAux
		r.beginCapture(false, func(frames Frames) {
			r.share() // nothing stops the host calling resume twice
			start(saved, func(result interp.Value) {
				r.Loop.Post(func() {
					r.curAux = aux
					r.startRestore(false, frames, result)
				}, 0)
			})
		})
		return r.captureReturn()
	})))
}
