package rt

import (
	"math"

	"repro/internal/ast"
	"repro/internal/instrument"
	"repro/internal/interp"
)

// armPoll sets the number of coming $suspend calls the engine may skip: none
// under deep stacks, whose yields follow the stack's depth; as many as the
// estimator guarantees would neither yield nor read the clock; all of them
// when no estimator runs, since the poll itself sees pauses and kills.
func (r *R) armPoll() {
	n := math.MaxInt
	switch {
	case r.opts.DeepStacks:
		n = 0
	case r.est != nil:
		n = r.est.quiet()
	}
	r.armed, r.poll.Budget = n, n
}

// postYield is a $suspend capture's action: a yield's queued resume is part
// of the program's serializable state (snapshot.go), and the posted task
// parks instead of resuming when a pause request is armed. The capture ends
// in the turn that began it, so curAux is still that turn's tag.
func (r *R) postYield(frames Frames) {
	r.postResume(frames, r.curAux, 0)
}

// installNatives puts the runtime primitives instrumented code calls in the
// realm's intrinsic table, and defines $C, which the guest calls by name.
func (r *R) installNatives() {
	in := r.In

	defineNative := func(k ast.Intrinsic, fn interp.NativeFunc) {
		r.poll.Intrinsics[k] = in.NewNative(ast.IntrinsicNames[k], fn)
	}

	// $C — Sitaram & Felleisen's unary control operator (§3): reify the
	// continuation, pass it to the argument, run the body in an empty
	// continuation.
	in.DefineGlobal(instrument.CFn, interp.ObjectValue(in.NewNative(instrument.CFn, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.Undefined, in.Throw("TypeError", "$C requires a function")
		}
		if in.InAtomic() {
			return interp.Undefined, in.Throw("Error", "cannot capture a continuation inside a native callback")
		}
		f := args[0]
		r.beginCapture(false, func(frames Frames) {
			k, fill := r.NewContinuation()
			fill(frames)
			r.runStep(func() (interp.Value, error) {
				return in.Call(f, interp.Undefined, []interp.Value{interp.ObjectValue(k)}, interp.Undefined)
			})
		})
		return r.captureReturn()
	})))

	// $suspend — the maySuspend of Figure 6: estimate elapsed time and
	// yield to the event loop when δ has passed, a pause is requested, or
	// the deep-stack limit is hit. The bytecode engine answers a call that
	// would return at once without making it (interp.Poll): the estimator is
	// credited with those first, and the budget is set again on the way out,
	// so every yield and every clock read lands on the call it always did.
	defineNative(ast.IntrinsicSuspend, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if n := r.armed - r.poll.Budget; n > 0 && r.est != nil {
			r.est.skip(n)
		}
		defer r.armPoll()
		if r.poll.Kill.Load() {
			// Graceful termination (R.Kill): unwind with a plain Go error.
			// Unlike a capture this needs no instrumented unwinding — a Go
			// error propagates through any frame, native ones included, so
			// kill is not deferred by atomic sections.
			return interp.Undefined, r.killReason()
		}
		deepPressure := r.opts.DeepStacks && in.Depth() > in.MaxDepth()/2
		timeDue := r.est != nil && r.est.due()
		if !deepPressure && !timeDue && !r.poll.Pause.Load() {
			return interp.Undefined, nil
		}
		if in.InAtomic() {
			// Inside a native callback (a sort comparator, a valueOf, an
			// accessor: interp's callBack): a continuation cannot unwind
			// through the native frame, so defer the yield to the next
			// suspend point.
			return interp.Undefined, nil
		}
		if r.est != nil {
			r.est.reset()
		}
		r.Yields++
		if r.yielded == nil {
			r.yielded = r.postYield
		}
		r.beginCapture(true, r.yielded)
		return r.captureReturn()
	})

	// $bp — breakpoints and single-stepping (§5.2): called before every
	// statement when debugging is enabled, with the original source line.
	defineNative(ast.IntrinsicBp, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		r.mu.Lock()
		if len(args) > 0 && args[0].IsNumber() {
			r.currentLine = int(args[0].Num())
		}
		line := r.currentLine
		hit := r.opts.Debug && (r.stepping || r.breakpoints[line])
		r.mu.Unlock()
		if !hit {
			return interp.Undefined, nil
		}
		if in.InAtomic() {
			return interp.Undefined, nil
		}
		aux := r.curAux
		r.beginCapture(true, func(frames Frames) {
			r.Loop.Post(func() {
				r.mu.Lock()
				r.paused = true
				r.savedK = frames
				r.savedAux = aux
				cb := r.onBreak
				r.mu.Unlock()
				if cb != nil {
					cb(line)
				}
			}, 0)
		})
		return r.captureReturn()
	})

	// Signal predicates used by instrumented catch clauses and exceptional
	// call-site handlers.
	defineNative(ast.IntrinsicIsSig, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.False, nil
		}
		_, ok := isSignal(args[0])
		return interp.BoolValue(ok), nil
	})
	defineNative(ast.IntrinsicIsCap, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.False, nil
		}
		o := args[0].Obj()
		return interp.BoolValue(o != nil && o.Class == interp.ClassCaptureSignal), nil
	})

	// Getter sub-language (§4.3): what the $get/$set prelude looks accessors up with.
	for k := ast.IntrinsicLookupGetter; k <= ast.IntrinsicRawSet; k++ {
		defineNative(k, interp.AccessorNatives[k])
	}

	// Bound-function support for the $construct prelude (§3.2): `new` on a
	// bound function must construct the ultimate target with the bound args
	// prepended and boundThis ignored, but the prelude's f.apply(o, args)
	// would substitute boundThis for the fresh object. $boundFn unwraps one
	// bound layer (undefined for ordinary functions) and $boundArgs prepends
	// that layer's bound args; the prelude loops until the target is plain
	// and only then allocates and applies. Both natives terminate trivially,
	// so they cannot strand a capture begun in the constructor body.
	defineNative(ast.IntrinsicBoundFn, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.Undefined, nil
		}
		if o := args[0].Obj(); o != nil && o.Bound() != nil {
			return o.Bound().Target, nil
		}
		return interp.Undefined, nil
	})
	defineNative(ast.IntrinsicBoundArgs, func(in *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) < 2 {
			return interp.Undefined, nil
		}
		o := args[0].Obj()
		rest := args[1].Obj()
		if o == nil || o.Bound() == nil || rest == nil {
			return args[1], nil
		}
		b := o.Bound()
		all := make([]interp.Value, 0, len(b.Args)+len(rest.Elems))
		all = append(all, b.Args...)
		all = append(all, rest.Elems...)
		return interp.ObjectValue(in.NewArray(all)), nil
	})

	// $create and $forInKeys, which the $construct prelude and a desugared
	// for-in call where a guest could replace Object.create and Object.keys.
	in.InstallDesugarNatives()
}
