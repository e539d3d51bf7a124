package interp

import (
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

// frameArray returns the runtime frame array the global g holds, or nil.
func (in *Interp) frameArray(g bytecode.Global, names []string) *Object {
	p, c := in.poll, in.globalCell(names[g.Name], uint32(g.Site))
	if p == nil || c == nil {
		return nil
	}
	if o := c.v.Obj(); o != nil && (o == p.Stacks[0] || o == p.Stacks[1] || o == p.Stacks[2]) {
		return o
	}
	return nil
}

var frameKeys = [...]string{instrument.FrameLabel, instrument.FrameLocals, instrument.FrameFn, instrument.FrameSelf, instrument.FrameArgs}

// frameShape is the shape the frame literal {label, locals, fn, self[, args]}
// of n properties reaches: a frame pushFrame builds is the object the literal
// builds.
func (in *Interp) frameShape(n int) *Shape {
	s := &in.poll.shapes[n-4]
	if *s == nil {
		*s = emptyShapeFor(in.objectProto)
		for _, k := range frameKeys[:n] {
			*s = (*s).transition(k, false)
		}
	}
	return *s
}

// pushFrame is OpPushFrame: the frame literal, then push's append. It charges
// the meter and the engine profile as that code does — the read of push, the
// object and its properties, the locals array, the call, the element.
func (in *Interp) pushFrame(f *bytecode.Frame, names []string, env *Env) (Value, bool) {
	a := in.frameArray(f.Array, names)
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
	locals := make([]Value, len(f.Locals))
	for i, r := range f.Locals {
		locals[i] = in.buildArguments(env.slotRef(r))
	}
	in.chargeProp()
	in.chargeAlloc()
	in.chargeAlloc()
	in.chargeCall()
	vals, n := [5]Value{NumberValue(float64(f.Label)), ObjectValue(in.NewArray(locals)), fn, env.GetRef(f.Self)}, 4
	if f.Args != 0 {
		vals[4], n = in.buildArguments(env.slotRef(f.Args)), 5
	}
	in.chargeMem(memObjectBytes + n*memPropBytes + memValueBytes)
	o := &Object{Class: ClassObject, Proto: in.objectProto, shape: in.frameShape(n), slots: make([]Prop, n)}
	for i, v := range vals[:n] {
		o.slots[i] = Prop{Value: v, Enumerable: true}
	}
	a.Elems = append(a.Elems, ObjectValue(o))
	return NumberValue(float64(len(a.Elems))), true
}

// popFrame is OpPopFrame: pop's, charging the read of pop and the call.
func (in *Interp) popFrame(g bytecode.Global, names []string) (Value, bool) {
	a := in.frameArray(g, names)
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

// reenter is OpReenter: $k.fn called with $k.self (and $k.args) as apply
// would call it, charging the reads and both calls. It declines unless $k's
// own fn is a data property holding something callable: anything else is the
// plain code's to run, and to report.
func (in *Interp) reenter(ref ast.Ref, withArgs bool, env *Env) (Value, bool, error) {
	k := env.GetRef(ref)
	o := k.Obj()
	if o == nil {
		return Undefined, false, nil
	}
	p := o.Own(instrument.FrameFn)
	if p == nil || p.IsAccessor() || !p.Value.Obj().IsCallable() {
		return Undefined, false, nil
	}
	fn := p.Value
	in.chargeProp() // $k.fn
	in.chargeProp() // .apply, which is not read
	self, err := in.GetMember(k, instrument.FrameSelf)
	if err != nil {
		return Undefined, true, err
	}
	var args []Value
	if withArgs {
		a, err := in.GetMember(k, instrument.FrameArgs)
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

// restoreFrame is OpRestoreFrame: the restore block's pop, reads and stores
// in one step. It declines unless the realm has no engine profile, counting
// the block's boundaries one by one would fire no trigger (stepBoundary),
// $rstack is the runtime's, with no own properties and a caller under the
// frame, and the frame has the literal's shape and enough locals.
func (in *Interp) restoreFrame(r *bytecode.Restore, names []string, env *Env) bool {
	if in.Engine != nil || in.Steps+uint64(r.Steps) > in.stepLimit {
		return false
	}
	a := in.frameArray(r.Array, names)
	if a == nil || len(a.slots) != 0 || len(a.Elems) < 2 {
		return false
	}
	top := a.Elems[len(a.Elems)-1].Obj()
	if top == nil || top.shape != in.frameShape(4) && top.shape != in.frameShape(5) {
		return false
	}
	l := top.slots[1].Value.Obj()
	if l == nil || l.Class != ClassArray || len(l.Elems) < len(r.Locals) {
		return false
	}
	popElem(a)
	s := env.slots
	s[r.Lbl], s[r.L] = top.slots[0].Value, top.slots[1].Value
	for i, slot := range r.Locals {
		s[slot] = l.Elems[i]
	}
	s[r.K] = a.Elems[len(a.Elems)-1]
	in.Steps += uint64(r.Steps)
	return true
}
