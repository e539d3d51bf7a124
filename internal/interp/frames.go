package interp

import (
	"slices"
	"strconv"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/instrument"
)

// The frame instructions (internal/bytecode): the bytecode engine pushes,
// pops and re-enters the continuation frames the instrumentation builds,
// doing what the marked code would with the builtins intact, so that a guest
// that replaced Array.prototype.push or pop or Function.prototype.apply does
// not see, or break, the runtime's own frames. Each declines, having done
// nothing, when what it reads is not what the instrumentation left there;
// the plain code then runs (DESIGN_interp.md "Frames").

// frameArray returns the runtime's frame array k, or nil in a realm with no
// runtime.
func (in *Interp) frameArray(k ast.Intrinsic) *Object {
	if p := in.poll; p != nil {
		return p.Intrinsics[k]
	}
	return nil
}

// pushFrame is OpPushFrame: the frame literal, then push's append. It charges
// the meter and the engine profile as that code does — the read of push, the
// array, the call, the element.
func (in *Interp) pushFrame(f *bytecode.Frame, names []string, env *Env) (Value, bool) {
	a := in.frameArray(f.Array)
	if a == nil {
		return Undefined, false
	}
	fn := Undefined
	if f.Fn.Global() {
		c := in.globalCell(names[f.FnGlobal.Name], uint32(f.FnGlobal.Site))
		if c == nil {
			return Undefined, false
		}
		fn = c.v
	} else {
		fn = env.GetRef(f.Fn)
	}
	frame := in.newFrame(3 + len(f.Elems))
	elems := frame.Elems
	elems[0], elems[1], elems[2] = NumberValue(float64(f.Label)), fn, env.GetRef(f.Self)
	for i, r := range f.Elems {
		elems[3+i] = in.buildArguments(env.slotRef(r))
	}
	in.chargeProp()
	in.chargeAlloc()
	in.chargeCall()
	in.chargeMem(memValueBytes)
	a.Elems = append(a.Elems, ObjectValue(frame))
	return NumberValue(float64(len(a.Elems))), true
}

// framePoolMax bounds Poll.Pool; a capture pushes about a segment's frames.
const framePoolMax = 64

// newFrame returns an n-element frame array: the last one the pool holds,
// its storage kept when that holds n, or a new one. The meter charges either
// as NewArray charges a new one.
func (in *Interp) newFrame(n int) *Object {
	p := in.poll
	k := len(p.Pool) - 1
	if k < 0 {
		return in.NewArray(make([]Value, n))
	}
	o := p.Pool[k]
	p.Pool = p.Pool[:k]
	o.Elems = slices.Grow(o.Elems[:0], n)[:n] // not append's make: -race allocates it
	in.chargeMem(memObjectBytes + memValueBytes*n)
	return o
}

// recycleFrame pools a frame restoreFrame popped, cleared so that the pool
// pins nothing, unless the runtime shares its frames (Poll.Shared) or o is
// not what newFrame hands out: an array with no own property whose fn is a
// closure. A bottom frame's fn is the runtime's native: it never goes back.
func (in *Interp) recycleFrame(o *Object) {
	p, fn := in.poll, o.Elems[instrument.FrameFn].Obj()
	if p.Shared || len(p.Pool) == framePoolMax || fn == nil || fn.Fn == nil ||
		o.shape != nil || o.usedAsProto || o.Proto != in.arrayProto {
		return
	}
	clear(o.Elems)
	p.Pool = append(p.Pool, o)
}

// popFrame is OpPopFrame: pop's, charging the read of pop and the call.
func (in *Interp) popFrame(k ast.Intrinsic) (Value, bool) {
	a := in.frameArray(k)
	if a == nil {
		return Undefined, false
	}
	in.chargeProp()
	in.chargeCall()
	v := Undefined
	if len(a.Elems) > 0 {
		v = popElem(a)
	}
	return v, true
}

// reenter is OpReenter: $k[1] called with $k[2] (and $k[3]) as apply would
// call it, charging the reads and both calls. It declines unless $k is an
// array whose fn element is callable: anything else is the plain code's to
// run, and to report. Every frame instrument builds, the bottom frame too,
// holds the self and args elements; frameElem's read through
// Array.prototype is for a foreign or corrupt frame that does not.
func (in *Interp) reenter(ref ast.Ref, withArgs bool, env *Env) (Value, bool, error) {
	k := env.GetRef(ref)
	o := k.Obj()
	if o == nil || o.Class != ClassArray || len(o.Elems) <= instrument.FrameFn || !o.Elems[instrument.FrameFn].Obj().IsCallable() {
		return Undefined, false, nil
	}
	fn := o.Elems[instrument.FrameFn]
	in.chargeProp() // $k[1]
	in.chargeProp() // .apply, which is not read
	self, err := in.frameElem(o, instrument.FrameSelf)
	if err != nil {
		return Undefined, true, err
	}
	var args []Value
	if withArgs {
		a, err := in.frameElem(o, instrument.FrameArgs)
		switch {
		case err != nil:
			return Undefined, true, err
		case a.IsObject():
			args = append(args, a.Obj().Elems...) // a copy, as apply's: the callee reads args in place
		case a.tag != TagUndefined && a.tag != TagNull:
			return Undefined, true, in.Throw("TypeError", "second argument to apply must be an array")
		}
	}
	in.chargeCall() // apply's
	v, err := in.Call(fn, self, args, Undefined)
	return v, true, err
}

// frameElem reads o[i] as the plain code's $k[i] does.
func (in *Interp) frameElem(o *Object, i int) (Value, error) {
	if i < len(o.Elems) {
		in.chargeProp()
		return o.Elems[i], nil
	}
	return in.GetMember(ObjectValue(o), strconv.Itoa(i))
}

// restoreFrame is OpRestoreFrame: the restore block's pop, reads and stores
// in one step, the popped frame then pooled (not at reenter: its $k is the
// callee's frame, still on $rstack). It declines unless the realm has no
// engine profile, counting the block's boundaries one by one would fire no
// trigger (stepBoundary), $rstack is the runtime's, with no own properties
// and a caller under the frame, and the frame is an array holding every
// element the block reads.
func (in *Interp) restoreFrame(r *bytecode.Restore, env *Env) bool {
	if in.Engine != nil || in.Steps+uint64(r.Steps) > in.stepLimit {
		return false
	}
	a := in.frameArray(r.Array)
	if a == nil || len(a.slots) != 0 || len(a.Elems) < 2 {
		return false
	}
	top := a.Elems[len(a.Elems)-1].Obj()
	if top == nil || top.Class != ClassArray || len(top.Elems) < int(r.Base)+len(r.Locals) {
		return false
	}
	popElem(a)
	s, saved := env.slots, top.Elems[r.Base:]
	s[r.Lbl] = top.Elems[instrument.FrameLabel]
	for i, slot := range r.Locals {
		s[slot] = saved[i]
	}
	s[r.K] = a.Elems[len(a.Elems)-1]
	in.Steps += uint64(r.Steps)
	in.recycleFrame(top)
	return true
}
