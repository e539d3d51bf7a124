package snapshot

import (
	"math"
	"slices"
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
	reg  *Registry
	code *CodeTable

	// A node is numbered at its first reference and appended here, so both
	// slices are in ID order, and the walk's queue is their unwritten tail.
	objID  map[*interp.Object]int
	objs   []*interp.Object
	envID  map[*interp.Env]int
	envs   []*interp.Env
	deltas []hostDelta

	// The blob is four sections, each written into its own buffer: the
	// header, the frame table, the object table and the roots.
	sec [4]writer

	// peak is the most nodes one Encode has numbered with these tables,
	// which is what their capacity, and so the cost of clearing them, is.
	peak int

	err error
}

// encs pools encoders: the node tables and the section buffers keep their
// capacity from one Encode to the next, and release empties them, so a
// pooled encoder pins nothing of the realm it encoded.
var encs = sync.Pool{New: func() any {
	return &enc{objID: make(map[*interp.Object]int), envID: make(map[*interp.Env]int)}
}}

func (e *enc) release() {
	// A small graph after a large one deletes its own keys: clearing would
	// cost the large one's capacity.
	if n := len(e.objs) + len(e.envs); n*16 < e.peak {
		for _, o := range e.objs {
			delete(e.objID, o)
		}
		for _, env := range e.envs {
			delete(e.envID, env)
		}
	} else {
		e.peak = max(e.peak, n)
		clear(e.objID)
		clear(e.envID)
	}
	clear(e.objs)
	clear(e.envs)
	e.objs, e.envs = e.objs[:0], e.envs[:0]
	for i := range e.sec {
		e.sec[i].buf = e.sec[i].buf[:0]
	}
	e.reg, e.code, e.deltas, e.err = nil, nil, nil, nil
	encs.Put(e)
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

	e := encs.Get().(*enc)
	defer e.release()
	e.reg, e.code = input.Reg, input.Code
	// Comparing against the pristine twin tells which guest values hang off
	// mutated host objects; the deltas section writes them like any root.
	e.collectDeltas(prist)

	// The roots are written first, and every reference numbers the node it
	// reaches; then each node's record is written in ID order, numbering
	// what it reaches in turn, until no node is left unwritten.
	s := &e.sec
	hdr, envw, objw, w := &s[0], &s[1], &s[2], &s[3]

	hdr.buf = append(hdr.buf, magic[:]...)
	hdr.u8(Version)
	hdr.bytes(input.HostMeta)
	hdr.uvarint(input.In.Steps)
	hdr.uvarint(input.In.MemUsed())
	hdr.u64(input.In.RandState())
	hdr.bytes(input.Output)
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
	hdr.u8(flags)
	hdr.f64(input.WallUnixMs)
	hdr.uvarint(r.Loop.TimerSeq())
	hdr.uvarint(uint64(e.reg.Len()))
	hdr.u64(e.reg.Sum())
	hdr.uvarint(uint64(len(e.code.funcs)))
	hdr.uvarint(uint64(len(e.code.scopes)))
	hdr.u64(e.code.sum)

	root := input.In.Global
	globalNames := root.GlobalNames()
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
				e.values(w, op.elems)
			}
		}
	}

	e.values(w, st.Frames)
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
			e.values(w, d.Args)
		case *rt.Resume:
			w.u8(taskResume)
			w.f64(t.Due)
			w.bool(d.Aux)
			e.values(w, d.Frames)
		}
	}

	// The walk is iterative, never recursive: a guest's graph can be
	// arbitrarily deep (a long list), and the Go stack is not.
	for ei, oi := 0, 0; e.err == nil && (ei < len(e.envs) || oi < len(e.objs)); {
		if oi < len(e.objs) {
			e.object(objw, e.objs[oi])
			oi++
		} else {
			e.env(envw, e.envs[ei])
			ei++
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	// Each table opens with its count: the frame count closes the header,
	// the object count the frame table.
	hdr.uvarint(uint64(len(e.envs)))
	envw.uvarint(uint64(len(e.objs)))
	blob := make([]byte, 0, len(hdr.buf)+len(envw.buf)+len(objw.buf)+len(w.buf))
	for i := range s {
		blob = append(blob, s[i].buf...)
	}
	return blob, nil
}

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
		var tp interp.Prop
		ok := j < m
		if ok {
			var tkey string
			tkey, tp = twin.OwnPropAt(j)
			ok = tkey == key
		}
		if !ok {
			sameKeys = false
			tp, ok = twin.OwnProp(key)
		}
		if !ok || !e.propEq(lp, tp, prist) {
			ops = append(ops, deltaOp{kind: opSetProp, key: key, prop: lp})
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
	return slices.EqualFunc(a, b, func(x, y interp.Value) bool { return e.hostValueEq(x, y, prist) })
}

// ---------------------------------------------------------------------------
// The walk
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
	default:
		e.err = pinf(PinInternal, "an engine-internal value (iterator or constructor sentinel) is reachable")
	}
}

// values writes a count and then each value.
func (e *enc) values(w *writer, vs []interp.Value) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.value(w, v)
	}
}

// objRef writes a reference to o (host ordinal or node ID), numbering o if
// this is its first. nil encodes as undefined — used for absent prototypes
// and absent getter/setter halves.
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
		id = len(e.objs)
		e.objID[o] = id
		e.objs = append(e.objs, o)
	}
	w.u8(wvObjRef)
	w.uvarint(uint64(id))
}

// envRef: 0 is the global frame, i+1 is env node i, numbered here if this
// is its first reference.
func (e *enc) envRef(w *writer, env *interp.Env) {
	if env == nil || env.IsGlobalFrame() {
		w.uvarint(0)
		return
	}
	id, ok := e.envID[env]
	if !ok {
		id = len(e.envs)
		e.envID[env] = id
		e.envs = append(e.envs, env)
	}
	w.uvarint(uint64(id) + 1)
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

// env writes one frame's record. Every frame but the global one is a slot
// frame, so the kind byte is always envSlotFrame and the by-name binding
// count that follows the slots always zero: version 3 gave both a byte, and
// Decode refuses any other value of either.
func (e *enc) env(w *writer, env *interp.Env) {
	id, ok := e.code.ScopeID(env.Layout())
	if !ok {
		e.err = pinf(PinEval, "environment frame with a layout outside the compiled program (eval)")
		return
	}
	w.u8(envSlotFrame)
	e.envRef(w, env.Parent())
	w.uvarint(uint64(id))
	e.values(w, env.SlotValues())
	w.uvarint(0)
}

// envSlotFrame is the one frame kind on the wire.
const envSlotFrame = 1

// object writes one object's record: its kind and what the kind carries,
// then a tail every kind shares. It pins what has no record.
func (e *enc) object(w *writer, o *interp.Object) {
	switch {
	case o.IsNative():
		switch o.NativeName() {
		case "$bottom":
			// Closes over the runtime only; rebuilt by NewBottomNative.
			w.u8(nodeBottom)
		case "continuation":
			frames, ok := rt.ContinuationFrames(o)
			if !ok {
				e.err = pinf(PinNative, "continuation value without reified frames")
				return
			}
			w.u8(nodeContinuation)
			e.values(w, frames)
		default:
			e.err = pinf(PinNative, "native function %q was created at runtime and has no registry name", o.NativeName())
			return
		}
	case o.Fn != nil:
		id, ok := e.code.FuncID(o.Fn.Decl)
		if !ok {
			e.err = pinf(PinEval, "closure over code outside the compiled program (eval)")
			return
		}
		w.u8(nodeClosure)
		w.uvarint(uint64(id))
		e.envRef(w, o.Fn.Env)
	case o.Bound() != nil:
		// Data-backed bound function: target, receiver, and partial args
		// are ordinary graph edges.
		b := o.Bound()
		w.u8(nodeBound)
		e.value(w, b.Target)
		e.value(w, b.This)
		e.values(w, b.Args)
	case o.Date() != nil:
		w.u8(nodeDate)
		w.f64(o.Date().MS)
	default:
		if o.Extra() != nil {
			e.err = pinf(PinHost, "object of class %q carries a host payload", o.Class)
			return
		}
		w.u8(nodePlain)
		w.str(o.Class.String())
	}
	// The tail: prototype, own props in insertion order, elements.
	e.objRef(w, o.Proto)
	n := o.OwnPropCount()
	w.uvarint(uint64(n))
	for j := range n {
		key, p := o.OwnPropAt(j)
		w.str(key)
		e.prop(w, p)
	}
	e.values(w, o.Elems)
}
