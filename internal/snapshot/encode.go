package snapshot

import (
	"math"
	"sync"

	"repro/internal/interp"
	"repro/internal/rt"
)

// Input is everything the encoder needs from the embedding layer. The
// caller (core.AsyncRun.Snapshot) guarantees quiescence: no goroutine is
// executing guest code, so the graph walk is read-only and race-free.
type Input struct {
	In   *interp.Interp
	RT   *rt.R
	Code *CodeTable
	Reg  *Registry

	// HostMeta is an opaque header the embedding layer round-trips —
	// core stores the program source and compile options there, so a
	// restoring process can rebuild an identical realm before decoding.
	HostMeta []byte
	// Output is the console output produced so far, carried by value.
	Output []byte
	// Result is the main chain's completion value when the run finished
	// normally and is draining timers (rt reports Done).
	Result interp.Value
	// WallUnixMs timestamps the snapshot (wall clock), so a restore can
	// credit parked time against pending timer due-offsets.
	WallUnixMs float64
}

// object node kinds on the wire. nodeBound and nodeDate are wire v2.
const (
	nodePlain = iota
	nodeClosure
	nodeBottom
	nodeContinuation
	nodeBound
	nodeDate
)

// host-delta op kinds on the wire.
const (
	opSetProp = iota
	opDelProp
	opSetProto
	opSetElems
)

// pending-task kinds on the wire.
const (
	taskTimer = iota + 1
	taskResume
)

// flag bits in the header.
const (
	flagPaused = 1 << iota
	flagDone
	flagSavedAux
)

type enc struct {
	in   *interp.Interp
	reg  *Registry
	code *CodeTable

	objID  map[*interp.Object]int
	objs   []*interp.Object
	objQ   []*interp.Object
	envID  map[*interp.Env]int
	envs   []*interp.Env
	envQ   []*interp.Env
	deltas []hostDelta

	err error
}

type hostDelta struct {
	ordinal int
	ops     []deltaOp
}

type deltaOp struct {
	kind  byte
	key   string
	prop  interp.Prop
	proto interp.Value // opSetProto: the new prototype (undefined = nil)
	elems []interp.Value
}

// Encode serializes a quiescent run. It returns a *PinError when live state
// reaches outside the serializable boundary.
func Encode(input Input) ([]byte, error) {
	r := input.RT
	if !r.ModeNormal() {
		return nil, pinf(PinMode, "runtime is mid capture/restore (not at a statement boundary)")
	}
	if input.In.InAtomic() {
		return nil, pinf(PinMode, "a native callback section is active")
	}
	if input.In.Depth() != 0 {
		return nil, pinf(PinMode, "guest frames are live on the native stack")
	}
	st := r.SnapshotState()
	tasks := r.Loop.Pending()
	foreign := 0
	for _, t := range tasks {
		switch t.Desc.(type) {
		case *interp.Timer, *rt.Resume:
		default:
			foreign++
		}
	}
	if foreign > 0 {
		return nil, pinf(PinTask, "%d event-loop task(s) not owned by the runtime (blocking host call or debugger)", foreign)
	}
	prist, _ := pristine()
	if input.Reg.Sum() != prist.Sum() || input.Reg.Len() != prist.Len() {
		return nil, pinf(PinRegistry, "host registry diverged from the pristine realm (host natives installed after realm construction?)")
	}

	e := &enc{
		in:    input.In,
		reg:   input.Reg,
		code:  input.Code,
		objID: make(map[*interp.Object]int),
		envID: make(map[*interp.Env]int),
	}

	// Host deltas first: comparing against the pristine twin tells us which
	// guest values hang off mutated host objects, and those values are
	// discovery roots like any other.
	e.collectDeltas(prist)

	// Discovery: assign IDs to every reachable non-registry object and
	// every reachable environment frame, in deterministic root order.
	root := input.In.Global
	globalNames := root.GlobalNames()
	for _, name := range globalNames {
		v, _ := root.Lookup(name)
		e.discoverValue(v)
	}
	for _, f := range st.Frames {
		e.discoverValue(f)
	}
	e.discoverValue(input.Result)
	for _, t := range tasks {
		switch d := t.Desc.(type) {
		case *interp.Timer:
			e.discoverValue(d.Fn)
			for _, a := range d.Args {
				e.discoverValue(a)
			}
		case *rt.Resume:
			for _, f := range d.Frames {
				e.discoverValue(f)
			}
		}
	}
	for _, d := range e.deltas {
		for _, op := range d.ops {
			e.discoverProp(op.prop)
			e.discoverValue(op.proto)
			for _, v := range op.elems {
				e.discoverValue(v)
			}
		}
	}
	e.drain()
	if e.err != nil {
		return nil, e.err
	}

	// Emission, into a pooled scratch buffer: the blob is copied out once,
	// at its final size, so neither a regrowth nor its slack outlives the
	// call.
	w := writers.Get().(*writer)
	defer func() {
		w.buf = w.buf[:0]
		writers.Put(w)
	}()
	w.buf = append(w.buf, magic[:]...)
	w.u8(Version)
	w.bytes(input.HostMeta)
	w.uvarint(input.In.Steps)
	w.uvarint(input.In.MemUsed())
	w.u64(input.In.RandState())
	w.bytes(input.Output)
	var flags byte
	if st.Paused {
		flags |= flagPaused
	}
	if st.Done {
		flags |= flagDone
	}
	if st.Aux {
		flags |= flagSavedAux
	}
	w.u8(flags)
	w.f64(input.WallUnixMs)
	w.uvarint(r.Loop.TimerSeq())

	w.uvarint(uint64(e.reg.Len()))
	w.u64(e.reg.Sum())
	w.uvarint(uint64(len(e.code.funcs)))
	w.uvarint(uint64(len(e.code.scopes)))
	w.u64(e.code.sum)

	e.emitEnvs(w)
	e.emitObjects(w)

	w.uvarint(uint64(len(globalNames)))
	for _, name := range globalNames {
		v, _ := root.Lookup(name)
		w.str(name)
		e.value(w, v)
	}

	w.uvarint(uint64(len(e.deltas)))
	for _, d := range e.deltas {
		w.uvarint(uint64(d.ordinal))
		w.uvarint(uint64(len(d.ops)))
		for _, op := range d.ops {
			w.u8(op.kind)
			switch op.kind {
			case opSetProp:
				w.str(op.key)
				e.prop(w, op.prop)
			case opDelProp:
				w.str(op.key)
			case opSetProto:
				e.value(w, op.proto)
			case opSetElems:
				w.uvarint(uint64(len(op.elems)))
				for _, v := range op.elems {
					e.value(w, v)
				}
			}
		}
	}

	w.uvarint(uint64(len(st.Frames)))
	for _, f := range st.Frames {
		e.value(w, f)
	}
	e.value(w, input.Result)

	w.uvarint(uint64(len(tasks)))
	for _, t := range tasks {
		switch d := t.Desc.(type) {
		case *interp.Timer:
			w.u8(taskTimer)
			w.f64(t.Due)
			e.value(w, d.Fn)
			w.uvarint(t.Handle)
			w.bool(false) // cancelled: a cleared timer is no longer queued
			w.uvarint(uint64(len(d.Args)))
			for _, a := range d.Args {
				e.value(w, a)
			}
		case *rt.Resume:
			w.u8(taskResume)
			w.f64(t.Due)
			w.bool(d.Aux)
			w.uvarint(uint64(len(d.Frames)))
			for _, f := range d.Frames {
				e.value(w, f)
			}
		}
	}

	if e.err != nil {
		return nil, e.err
	}
	blob := make([]byte, len(w.buf))
	copy(blob, w.buf)
	return blob, nil
}

var writers = sync.Pool{New: func() any { return new(writer) }}

// ---------------------------------------------------------------------------
// Host deltas
// ---------------------------------------------------------------------------

// collectDeltas diffs every registry object against its pristine twin.
// Value equality across the two realms: primitives by payload, objects by
// matching registry ordinal (a host object can only equal its own twin; a
// guest object is never equal to anything pristine).
func (e *enc) collectDeltas(prist *Registry) {
	for i := 0; i < e.reg.Len(); i++ {
		live, twin := e.reg.Object(i), prist.Object(i)
		ops := e.propDeltas(live, twin, prist)
		if !e.protoEq(live.Proto, twin.Proto, prist) {
			ops = append(ops, deltaOp{kind: opSetProto, proto: interp.ObjectValue(live.Proto)})
		}
		if !e.elemsEq(live.Elems, twin.Elems, prist) {
			ops = append(ops, deltaOp{kind: opSetElems, elems: live.Elems})
		}
		if len(ops) > 0 {
			e.deltas = append(e.deltas, hostDelta{ordinal: i, ops: ops})
		}
	}
}

// propDeltas is the property part of one object's delta: what the live
// object sets that its twin lacks or holds otherwise, in the live object's
// order, then what it deleted. A guest rarely touches a host object's key
// sequence, so the two are walked side by side, in place; a key out of
// position is looked up through the other's shape.
func (e *enc) propDeltas(live, twin *interp.Object, prist *Registry) (ops []deltaOp) {
	n, m := live.OwnPropCount(), twin.OwnPropCount()
	sameKeys := n == m
	for j := 0; j < n; j++ {
		key, lp := live.OwnPropAt(j)
		tkey, tp := twin.OwnPropAt(j)
		if tp == nil || tkey != key {
			sameKeys, tp = false, twin.Own(key)
		}
		if tp == nil || !e.propEq(*lp, *tp, prist) {
			ops = append(ops, deltaOp{kind: opSetProp, key: key, prop: *lp})
		}
	}
	for j := 0; j < m && !sameKeys; j++ {
		if key, _ := twin.OwnPropAt(j); live.Own(key) == nil {
			ops = append(ops, deltaOp{kind: opDelProp, key: key})
		}
	}
	return ops
}

func (e *enc) propEq(a, b interp.Prop, prist *Registry) bool {
	return a.Enumerable == b.Enumerable && a.IsAccessor() == b.IsAccessor() &&
		e.protoEq(a.Getter(), b.Getter(), prist) &&
		e.protoEq(a.Setter(), b.Setter(), prist) &&
		e.hostValueEq(a.Data(), b.Data(), prist)
}

// protoEq compares two object pointers across the live/pristine realms.
func (e *enc) protoEq(a, b *interp.Object, prist *Registry) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	ai, aok := e.reg.Ordinal(a)
	bi, bok := prist.Ordinal(b)
	return aok && bok && ai == bi
}

func (e *enc) hostValueEq(a, b interp.Value, prist *Registry) bool {
	if a.Tag() != b.Tag() {
		return false
	}
	switch a.Tag() {
	case interp.TagUndefined, interp.TagNull:
		return true
	case interp.TagBool:
		return a.Bool() == b.Bool()
	case interp.TagNumber:
		return math.Float64bits(a.Num()) == math.Float64bits(b.Num())
	case interp.TagString:
		return a.Str() == b.Str()
	case interp.TagObject:
		return e.protoEq(a.Obj(), b.Obj(), prist)
	}
	return false
}

func (e *enc) elemsEq(a, b []interp.Value, prist *Registry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !e.hostValueEq(a[i], b[i], prist) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------------

func (e *enc) discoverValue(v interp.Value) {
	if e.err != nil {
		return
	}
	if v.Tag() > interp.TagObject {
		e.err = pinf(PinInternal, "an engine-internal value (iterator or constructor sentinel) is reachable")
		return
	}
	o := v.Obj()
	if o == nil {
		return
	}
	e.discoverObject(o)
}

func (e *enc) discoverObject(o *interp.Object) {
	if e.err != nil || o == nil {
		return
	}
	if _, ok := e.reg.Ordinal(o); ok {
		return
	}
	if _, ok := e.objID[o]; ok {
		return
	}
	e.objID[o] = len(e.objs)
	e.objs = append(e.objs, o)
	e.objQ = append(e.objQ, o)
}

func (e *enc) discoverEnv(env *interp.Env) {
	if e.err != nil || env == nil || env.IsGlobalFrame() {
		return
	}
	if _, ok := e.envID[env]; ok {
		return
	}
	e.envID[env] = len(e.envs)
	e.envs = append(e.envs, env)
	e.envQ = append(e.envQ, env)
}

func (e *enc) discoverProp(p interp.Prop) {
	e.discoverObject(p.Getter())
	e.discoverObject(p.Setter())
	e.discoverValue(p.Data())
}

// drain processes the discovery worklists iteratively (guest graphs can be
// arbitrarily deep — recursion would blow the Go stack on a long list).
func (e *enc) drain() {
	for e.err == nil && (len(e.objQ) > 0 || len(e.envQ) > 0) {
		if n := len(e.objQ); n > 0 {
			o := e.objQ[n-1]
			e.objQ = e.objQ[:n-1]
			e.scanObject(o)
			continue
		}
		n := len(e.envQ)
		env := e.envQ[n-1]
		e.envQ = e.envQ[:n-1]
		e.scanEnv(env)
	}
}

// scanObject classifies o and discovers its children. Classification must
// agree with emitObjects.
func (e *enc) scanObject(o *interp.Object) {
	switch {
	case o.IsNative():
		switch o.NativeName() {
		case "$bottom":
			// Closes over the runtime only; rebuilt by NewBottomNative.
		case "continuation":
			frames, ok := rt.ContinuationFrames(o)
			if !ok {
				e.err = pinf(PinNative, "continuation value without reified frames")
				return
			}
			for _, f := range frames {
				e.discoverValue(f)
			}
		default:
			e.err = pinf(PinNative, "native function %q was created at runtime and has no registry name", o.NativeName())
			return
		}
	case o.Fn != nil:
		if _, ok := e.code.FuncID(o.Fn.Decl); !ok {
			e.err = pinf(PinEval, "closure over code outside the compiled program (eval)")
			return
		}
		e.discoverEnv(o.Fn.Env)
	case o.Bound() != nil:
		// Data-backed bound function: target, receiver, and partial args
		// are ordinary graph edges.
		b := o.Bound()
		e.discoverValue(b.Target)
		e.discoverValue(b.This)
		for _, v := range b.Args {
			e.discoverValue(v)
		}
	case o.Date() != nil:
		// Pure data slot; nothing beyond the uniform tail to discover.
	default:
		if o.Extra() != nil {
			e.err = pinf(PinHost, "object of class %q carries a host payload", o.Class)
			return
		}
	}
	e.discoverObject(o.Proto)
	for j := range o.OwnPropCount() {
		_, p := o.OwnPropAt(j)
		e.discoverProp(*p)
	}
	for _, v := range o.Elems {
		e.discoverValue(v)
	}
}

func (e *enc) scanEnv(env *interp.Env) {
	if _, ok := e.code.ScopeID(env.Layout()); !ok {
		e.err = pinf(PinEval, "environment frame with a layout outside the compiled program (eval)")
		return
	}
	e.discoverEnv(env.Parent())
	for _, v := range env.SlotValues() {
		e.discoverValue(v)
	}
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

// value tags on the wire.
const (
	wvUndefined = iota
	wvNull
	wvFalse
	wvTrue
	wvNumber
	wvString
	wvObjRef
	wvHostRef
)

func (e *enc) value(w *writer, v interp.Value) {
	switch v.Tag() {
	case interp.TagUndefined:
		w.u8(wvUndefined)
	case interp.TagNull:
		w.u8(wvNull)
	case interp.TagBool:
		if v.Bool() {
			w.u8(wvTrue)
		} else {
			w.u8(wvFalse)
		}
	case interp.TagNumber:
		w.u8(wvNumber)
		w.f64(v.Num())
	case interp.TagString:
		w.u8(wvString)
		w.str(v.Str())
	case interp.TagObject:
		e.objRef(w, v.Obj())
	}
}

// objRef writes a reference to o (host ordinal or node ID). nil encodes as
// undefined — used for absent prototypes and absent getter/setter halves.
func (e *enc) objRef(w *writer, o *interp.Object) {
	if o == nil {
		w.u8(wvUndefined)
		return
	}
	if ord, ok := e.reg.Ordinal(o); ok {
		w.u8(wvHostRef)
		w.uvarint(uint64(ord))
		return
	}
	id, ok := e.objID[o]
	if !ok {
		// Discovery visited everything reachable from the roots; an
		// unknown object here is a codec bug, not guest behavior.
		e.err = corruptf("object escaped discovery (encoder bug)")
		return
	}
	w.u8(wvObjRef)
	w.uvarint(uint64(id))
}

func (e *enc) prop(w *writer, p interp.Prop) {
	var bits byte
	if p.Enumerable {
		bits |= 1
	}
	if p.IsAccessor() {
		bits |= 2
	}
	w.u8(bits)
	if bits&2 != 0 {
		e.objRef(w, p.Getter())
		e.objRef(w, p.Setter())
		return
	}
	e.value(w, p.Value)
}

// emitEnvs writes the frames. Every frame but the global one is a slot
// frame, so the kind byte is always envSlotFrame and the by-name binding count
// that follows the slots always zero: version 3 gave both a byte, and
// Decode refuses any other value of either.
func (e *enc) emitEnvs(w *writer) {
	w.uvarint(uint64(len(e.envs)))
	for _, env := range e.envs {
		w.u8(envSlotFrame)
		e.envRef(w, env.Parent())
		id, _ := e.code.ScopeID(env.Layout())
		w.uvarint(uint64(id))
		slots := env.SlotValues()
		w.uvarint(uint64(len(slots)))
		for _, v := range slots {
			e.value(w, v)
		}
		w.uvarint(0)
	}
}

// envSlotFrame is the one frame kind on the wire.
const envSlotFrame = 1

// envRef: 0 is the global frame, i+1 is env node i.
func (e *enc) envRef(w *writer, env *interp.Env) {
	if env == nil || env.IsGlobalFrame() {
		w.uvarint(0)
		return
	}
	id, ok := e.envID[env]
	if !ok {
		e.err = corruptf("environment escaped discovery (encoder bug)")
		return
	}
	w.uvarint(uint64(id) + 1)
}

func (e *enc) emitObjects(w *writer) {
	w.uvarint(uint64(len(e.objs)))
	for _, o := range e.objs {
		switch {
		case o.NativeName() == "$bottom":
			w.u8(nodeBottom)
		case o.IsNative(): // "continuation"; scanObject pinned the rest
			w.u8(nodeContinuation)
			frames, _ := rt.ContinuationFrames(o)
			w.uvarint(uint64(len(frames)))
			for _, f := range frames {
				e.value(w, f)
			}
		case o.Fn != nil:
			w.u8(nodeClosure)
			id, _ := e.code.FuncID(o.Fn.Decl)
			w.uvarint(uint64(id))
			e.envRef(w, o.Fn.Env)
		case o.Bound() != nil:
			b := o.Bound()
			w.u8(nodeBound)
			e.value(w, b.Target)
			e.value(w, b.This)
			w.uvarint(uint64(len(b.Args)))
			for _, v := range b.Args {
				e.value(w, v)
			}
		case o.Date() != nil:
			w.u8(nodeDate)
			w.f64(o.Date().MS)
		default:
			w.u8(nodePlain)
			w.str(o.Class.String())
		}
		// Uniform tail for every kind: prototype, own props in insertion
		// order, elements.
		e.objRef(w, o.Proto)
		n := o.OwnPropCount()
		w.uvarint(uint64(n))
		for j := range n {
			key, p := o.OwnPropAt(j)
			w.str(key)
			e.prop(w, *p)
		}
		w.uvarint(uint64(len(o.Elems)))
		for _, v := range o.Elems {
			e.value(w, v)
		}
	}
}
