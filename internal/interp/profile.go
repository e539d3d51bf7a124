package interp

// Guest-level sampling profiler. Every prof.every statements the interpreter
// records the current JS call stack (a shadow stack of function names pushed
// and popped at the single Call seam both engines funnel through) and
// attributes the statements executed since the previous sample to that
// stack. The trigger is folded into the same stepLimit threshold as
// MaxSteps, the scheduling quantum, and the memory meter, so an armed
// profiler adds zero compares to the statement-boundary fast path; a
// disarmed one (prof == nil) costs one nil check per Call. Samples
// accumulate as folded stacks — "outer;inner" → statement count — the
// flamegraph collapsed format.

// profState is the per-realm sampling profiler. All fields are owned by the
// executing goroutine; harvesting (TakeProfileFolded) follows the same
// owner-only contract as Steps.
type profState struct {
	every  uint64 // sampling period in statements; > 0 while armed
	next   uint64 // Steps value at which the next sample fires
	last   uint64 // Steps value at the previous sample (weight baseline)
	stack  []string
	phase  string // non-empty during capture/restore; annotated as a leaf
	folded map[string]uint64
}

// TakeProfileFolded drains the accumulated folded-stack samples, leaving the
// profiler armed with an empty accumulator. Keys are ";"-joined stacks,
// root first; values are statement counts. Executing goroutine only (the
// supervisor harvests between turns, when the worker owns the realm).
func (in *Interp) TakeProfileFolded() map[string]uint64 {
	if in.prof == nil || len(in.prof.folded) == 0 {
		return nil
	}
	out := in.prof.folded
	in.prof.folded = make(map[string]uint64)
	in.prof.last = in.Steps
	return out
}

// SetProfilePhase annotates subsequent samples with a synthetic leaf frame —
// the runtime sets "(capture)"/"(restore)" around continuation capture and
// reconstruction so their statement cost shows up attributed, not smeared
// over whatever user frame happened to be on top. Empty clears it.
func (in *Interp) SetProfilePhase(phase string) {
	if in.prof != nil {
		in.prof.phase = phase
	}
}

// profResetBaseline re-anchors the sample window after a discontinuous jump
// in Steps (snapshot restore sets the cumulative counter in one write); the
// jumped-over statements ran in another realm and must not be attributed
// here.
func (in *Interp) profResetBaseline() {
	if in.prof != nil {
		in.prof.last = in.Steps
		in.prof.next = in.Steps + in.prof.every
		in.recomputeStepLimit()
	}
}

// profPush/profPop maintain the shadow stack at the Call boundary. Both are
// behind a nil check at the call site, so the disabled cost is one
// predictable branch per JS call, zero per statement.
func (in *Interp) profPush(name string) {
	if name == "" {
		name = "(anonymous)"
	}
	in.prof.stack = append(in.prof.stack, name)
}

func (in *Interp) profPop() {
	if n := len(in.prof.stack); n > 0 {
		in.prof.stack = in.prof.stack[:n-1]
	}
}

// profSample runs in stepBoundary once Steps crosses prof.next: it charges
// the statements since the previous sample to the current stack and
// schedules the next sample. The caller recomputes stepLimit on every exit
// path after this point.
func (in *Interp) profSample() {
	p := in.prof
	weight := in.Steps - p.last
	p.last = in.Steps
	p.next = in.Steps + p.every
	if weight == 0 {
		return
	}
	key := "(toplevel)"
	if len(p.stack) > 0 {
		n := len(p.stack) - 1
		for _, f := range p.stack {
			n += len(f)
		}
		b := make([]byte, 0, n)
		for i, f := range p.stack {
			if i > 0 {
				b = append(b, ';')
			}
			b = append(b, f...)
		}
		key = string(b)
	}
	if p.phase != "" {
		key += ";" + p.phase
	}
	p.folded[key] += weight
}
