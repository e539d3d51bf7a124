package snapshot

import (
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/rt"
)

// Meta is the blob header: everything a restoring process needs *before*
// it can build the destination realm (the embedded host metadata carries
// source and options), plus the accounting and control flags the embedding
// layer applies after decoding.
type Meta struct {
	HostMeta   []byte
	Steps      uint64
	MemUsed    uint64
	Rand       uint64
	Output     []byte
	Paused     bool
	Done       bool
	SavedAux   bool
	WallUnixMs float64
	// TimerSeq is the source runtime's last-issued setTimeout handle.
	TimerSeq uint64
}

// Decoded is the result of decoding a blob into a realm: the runtime
// control state to adopt, the completion value (when Done), and the
// pending tasks to repost (rt.Repost).
type Decoded struct {
	Meta   Meta
	State  rt.ParkState
	Result interp.Value
	Tasks  []eventloop.Pending
	// Charged is what decoding the guest's graph charged the realm's meter:
	// everything but the closures over the global frame, which a running
	// realm declares before the guest's meter starts.
	Charged uint64
}

// ReadMeta parses only the header, cheaply — no realm needed. Restore uses
// it to learn the source/options before building anything; admission
// endpoints use it to validate a blob and preview its output.
func ReadMeta(blob []byte) (Meta, error) {
	r := &reader{buf: blob}
	m, err := readMeta(r)
	return m, err
}

func readMeta(r *reader) (Meta, error) {
	var m Meta
	if len(r.buf) < len(magic)+1 || string(r.buf[:len(magic)]) != string(magic[:]) {
		return m, corruptf("bad magic")
	}
	r.off = len(magic)
	if v := r.u8(); v != Version {
		return m, corruptf("wire version %d, this build reads only version %d", v, Version)
	}
	m.HostMeta = r.bytes()
	m.Steps = r.uvarint()
	m.MemUsed = r.uvarint()
	m.Rand = r.u64()
	m.Output = r.bytes()
	flags := r.u8()
	m.Paused = flags&flagPaused != 0
	m.Done = flags&flagDone != 0
	m.SavedAux = flags&flagSavedAux != 0
	m.WallUnixMs = r.f64()
	m.TimerSeq = r.uvarint()
	return m, r.err
}

type dec struct {
	in    *interp.Interp
	rt    *rt.R
	code  *CodeTable
	reg   *Registry
	setup uint64 // what the closures over the global frame charged (Decoded.Charged)

	// What the first pass leaves the second: every frame with its parent
	// wired, every object's shell, and the fill of each continuation, in
	// table order.
	envs  []*interp.Env
	objs  []*interp.Object
	fills []func(rt.Frames)
}

// Decode rebuilds a blob's graph inside a freshly constructed realm. The
// realm must have been built from the same compiled program (the code
// fingerprint is checked) with its host registry taken at the standard
// construction point (the registry fingerprint is checked). The caller
// applies the returned state: SetRandState/SetAccounting on the
// interpreter, the loop's timer sequence, AdoptParked + Repost on the runtime.
//
// References point in both directions, so the graph is read twice and
// built straight from the bytes, with no parse tree in between: shells
// reads the frame and object tables and allocates what they name, and
// fill reads everything again from the frame table on, resolving each
// value into the shells as it goes.
func Decode(blob []byte, in *interp.Interp, runtime *rt.R, code *CodeTable, reg *Registry) (*Decoded, error) {
	r := &reader{buf: blob}
	meta, err := readMeta(r)
	if err != nil {
		return nil, err
	}
	regCount := r.uvarint()
	regSum := r.u64()
	if r.err == nil && (int(regCount) != reg.Len() || regSum != reg.Sum()) {
		return nil, corruptf("host registry mismatch (blob %d objects, realm %d) — different runtime build?", regCount, reg.Len())
	}
	funcCount := r.uvarint()
	scopeCount := r.uvarint()
	codeSum := r.u64()
	if r.err == nil && (int(funcCount) != len(code.funcs) || int(scopeCount) != len(code.scopes) || codeSum != code.sum) {
		return nil, corruptf("compiled program mismatch (blob %d funcs/%d scopes, realm %d/%d) — recompilation diverged", funcCount, scopeCount, len(code.funcs), len(code.scopes))
	}

	d := &dec{in: in, rt: runtime, code: code, reg: reg}
	start := in.MemUsed()
	tables := r.off
	if err := d.shells(r); err != nil {
		return nil, err
	}
	r.off = tables
	out := &Decoded{Meta: meta}
	if err := d.fill(r, out); err != nil {
		return nil, err
	}
	out.Charged = in.MemUsed() - start - d.setup
	return out, nil
}

// shells is the first pass. It allocates every environment, wires and
// checks the parent chains (references may point forward: a frame is
// numbered at its first reference, often a child's record), then allocates
// every object's shell from its record's kind, skipping both tables' values.
func (d *dec) shells(r *reader) error {
	d.envs = make([]*interp.Env, r.count())
	parents := make([]int, len(d.envs))
	for i := range d.envs {
		// Every frame but the global one is a slot frame with no by-name
		// bindings (emitEnvs); a blob that says otherwise asks for a frame
		// shape no engine can run on.
		if kind := r.u8(); kind != envSlotFrame {
			r.failf("unknown frame kind %d", kind)
		}
		parents[i] = r.ref()
		layout := d.code.Scope(r.ref())
		n := r.count()
		r.skipValues(n)
		if b := r.uvarint(); b != 0 {
			r.failf("frame carries %d by-name bindings", b)
		}
		if r.err != nil {
			return r.err
		}
		if layout == nil || len(layout.Names) != n {
			return corruptf("env %d: slot count %d does not match layout", i, n)
		}
		d.envs[i] = d.in.RestoredSlotEnv(nil, layout, make([]interp.Value, n))
	}
	for i, ref := range parents {
		p, err := d.env(ref)
		if err != nil {
			return err
		}
		d.envs[i].SetRestoredParent(p)
	}
	// Every chain must end at the global scope: one that loops back on
	// itself would hang the first variable lookup that walks it, below any
	// step budget. rooted marks environments already known to reach it, so
	// the whole check is linear.
	rooted := make([]bool, len(parents))
	for i := range parents {
		hops := 0
		for ref := i + 1; ref != 0 && !rooted[ref-1]; ref = parents[ref-1] {
			if hops++; hops > len(parents) {
				return corruptf("env %d: parent chain is cyclic", i)
			}
		}
		for ref := i + 1; ref != 0 && !rooted[ref-1]; ref = parents[ref-1] {
			rooted[ref-1] = true
		}
	}

	// Closures pair a code-table function with a decoded environment
	// through the same construction path the evaluator uses, so shape,
	// escape marking, and co-allocation invariants all hold. Continuations
	// and bound functions are cyclic graphs, so they are allocated empty and
	// filled by the second pass like every other object.
	d.objs = make([]*interp.Object, r.count())
	for i := range d.objs {
		var class []byte
		var funcID, envRef int
		var dateMS float64
		kind := r.u8()
		switch kind {
		case nodePlain:
			class = r.bytes()
		case nodeClosure:
			funcID, envRef = r.ref(), r.ref()
		case nodeBottom:
		case nodeContinuation:
			r.skipValues(r.count())
		case nodeBound:
			r.skipValues(2)
			r.skipValues(r.count())
		case nodeDate:
			dateMS = r.f64()
		default:
			r.failf("unknown object kind %d", kind)
		}
		r.skipValues(1) // prototype
		props := r.count()
		for n := props; n > 0; n-- {
			r.bytes()
			if r.u8()&2 != 0 {
				r.skipValues(1) // the getter; the setter follows
			}
			r.skipValues(1)
		}
		r.skipValues(r.count())
		if r.err != nil {
			return r.err
		}
		switch kind {
		case nodePlain:
			c, ok := interp.ClassNamed(string(class))
			if !ok {
				return corruptf("object %d: unknown class %q", i, class)
			}
			d.objs[i] = &interp.Object{Class: c}
		case nodeClosure:
			fn := d.code.Func(funcID)
			if fn == nil {
				return corruptf("object %d: function ID %d out of range", i, funcID)
			}
			env, err := d.env(envRef)
			if err != nil {
				return err
			}
			before := d.in.MemUsed()
			d.objs[i] = d.in.NewClosure(fn, env)
			if envRef == 0 {
				d.setup += d.in.MemUsed() - before
			}
		case nodeBottom:
			d.objs[i] = d.rt.NewBottomNative()
		case nodeContinuation:
			k, fill := d.rt.NewContinuation()
			d.objs[i] = k
			d.fills = append(d.fills, fill)
		case nodeBound:
			d.objs[i] = interp.NewBound(nil, &interp.BoundFunction{})
		case nodeDate:
			d.objs[i] = interp.NewDate(nil, dateMS)
		}
		d.objs[i].ReserveProps(props)
	}
	return r.err
}

// fill is the second pass, from the frame table on: slots, then per object
// its prototype (the shape tree roots off it), its properties replayed in
// insertion order — re-interning the same canonical shape in this realm's
// transition tree — its elements, and a continuation's or bound function's
// fields; then the host deltas, the global bindings, the saved frames, the
// result and the pending tasks, each applied as it is read.
func (d *dec) fill(r *reader, out *Decoded) error {
	r.count()
	for _, env := range d.envs {
		r.u8()
		r.ref()
		r.ref()
		r.count()
		slots := env.SlotValues()
		for j := range slots {
			slots[j] = d.value(r)
		}
		r.uvarint()
	}

	r.count()
	fills := d.fills
	for _, o := range d.objs {
		var fill func(rt.Frames)
		var frames rt.Frames
		var target, this interp.Value
		var args []interp.Value
		switch r.u8() {
		case nodePlain:
			r.bytes()
		case nodeClosure:
			r.ref()
			r.ref()
		case nodeContinuation:
			frames = d.values(r)
			fill, fills = fills[0], fills[1:]
		case nodeBound:
			target, this, args = d.value(r), d.value(r), d.values(r)
		case nodeDate:
			r.f64()
		}
		o.Proto = d.object(r) // pre-shape: no rebuild needed, nothing cached yet
		for n := r.count(); n > 0; n-- {
			d.prop(r, o, r.str())
		}
		o.Elems = d.values(r)
		if r.err != nil {
			return r.err
		}
		if fill != nil {
			fill(frames)
		}
		if b := o.Bound(); b != nil {
			b.Target, b.This, b.Args = target, this, args
		}
	}

	// The global bindings precede the host deltas on the wire but are
	// applied after them; their values are resolved on the way back.
	bindings := r.off
	for n := r.count(); n > 0; n-- {
		r.bytes()
		r.skipValues(1)
	}
	var reproto []*interp.Object
	for n := r.count(); n > 0; n-- {
		ord := r.ref()
		ops := r.count()
		target := d.reg.Object(ord)
		if target == nil && r.err == nil {
			return corruptf("delta ordinal %d out of range", ord)
		}
		for ; ops > 0 && r.err == nil; ops-- {
			switch kind := r.u8(); kind {
			case opSetProp:
				d.prop(r, target, r.str())
			case opDelProp:
				target.Delete(r.str())
			case opSetProto:
				target.SetProto(d.object(r))
				reproto = append(reproto, target)
			case opSetElems:
				target.Elems = make([]interp.Value, r.count())
				for j := range target.Elems {
					target.Elems[j] = d.value(r)
				}
			default:
				r.failf("unknown delta op %d", kind)
			}
		}
	}
	if r.err != nil {
		return r.err
	}
	if err := d.checkProtos(reproto); err != nil {
		return err
	}
	rest := r.off
	r.off = bindings
	for n := r.count(); n > 0; n-- {
		// Define writes through existing cells, so bindings already cached
		// by global inline caches keep their identity.
		name := r.str()
		d.in.Global.Define(name, d.value(r))
	}
	r.off = rest

	meta := &out.Meta
	out.State = rt.ParkState{Paused: meta.Paused, Frames: d.values(r), Aux: meta.SavedAux, Done: meta.Done}
	out.Result = d.value(r)
	for n := r.count(); n > 0 && r.err == nil; n-- {
		task := eventloop.Pending{}
		kind := r.u8()
		task.Due = r.f64()
		switch kind {
		case taskTimer:
			timer := &interp.Timer{Fn: d.value(r)}
			task.Handle = r.uvarint()
			cancelled := r.bool()
			timer.Args = d.values(r)
			if cancelled {
				// Written by a build that kept cleared timers queued: the
				// timer never fires, so it is not reposted.
				continue
			}
			task.Desc = timer
		case taskResume:
			aux := r.bool()
			task.Desc = &rt.Resume{Frames: d.values(r), Aux: aux}
		default:
			r.failf("unknown pending task kind %d", kind)
		}
		out.Tasks = append(out.Tasks, task)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return corruptf("%d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// checkProtos refuses a prototype chain that does not end at null: like a
// looping scope chain, it would hang the first lookup that misses, below
// any step budget. A fresh realm's host graph has no loop, so one must pass
// through a decoded object or a host object a delta re-prototyped; the
// walks start there. rooted holds the objects already known to reach null,
// so the whole check is linear.
func (d *dec) checkProtos(reproto []*interp.Object) error {
	limit := len(d.objs) + d.reg.Len()
	rooted := map[*interp.Object]bool{}
	for _, starts := range [][]*interp.Object{d.objs, reproto} {
		for _, o := range starts {
			hops := 0
			for p := o.Proto; p != nil && !rooted[p]; p = p.Proto {
				if hops++; hops > limit {
					return corruptf("prototype chain is cyclic")
				}
			}
			for p := o.Proto; p != nil && !rooted[p]; p = p.Proto {
				rooted[p] = true
			}
		}
	}
	return nil
}

// env resolves a frame reference: 0 is the global frame, i+1 frame i.
func (d *dec) env(ref int) (*interp.Env, error) {
	if ref == 0 {
		return d.in.Global, nil
	}
	if ref-1 >= len(d.envs) {
		return nil, corruptf("env ref %d out of range", ref)
	}
	return d.envs[ref-1], nil
}

// skipValues reads past n wire values.
func (r *reader) skipValues(n int) {
	for ; n > 0 && r.err == nil; n-- {
		switch tag := r.u8(); tag {
		case wvUndefined, wvNull, wvFalse, wvTrue:
		case wvNumber:
			r.u64()
		case wvString:
			r.bytes()
		case wvObjRef, wvHostRef:
			r.ref()
		default:
			r.failf("unknown value tag %d", tag)
		}
	}
}

// value reads one wire value and resolves it in this realm.
func (d *dec) value(r *reader) interp.Value {
	switch tag := r.u8(); tag {
	case wvUndefined:
		return interp.Undefined
	case wvNull:
		return interp.Null
	case wvFalse:
		return interp.False
	case wvTrue:
		return interp.True
	case wvNumber:
		return interp.NumberValue(r.f64())
	case wvString:
		return interp.StringValue(r.str())
	case wvObjRef:
		ref := r.ref()
		if ref < len(d.objs) {
			return interp.ObjectValue(d.objs[ref])
		}
		r.failf("object ref %d out of range", ref)
	case wvHostRef:
		ref := r.ref()
		if o := d.reg.Object(ref); o != nil {
			return interp.ObjectValue(o)
		}
		r.failf("host ref %d out of range", ref)
	default:
		r.failf("unknown value tag %d", tag)
	}
	return interp.Undefined
}

// values reads a counted run of values; none is nil.
func (d *dec) values(r *reader) []interp.Value {
	n := r.count()
	if n == 0 {
		return nil
	}
	vs := make([]interp.Value, n)
	for i := range vs {
		vs[i] = d.value(r)
	}
	return vs
}

// object reads a value that must be an object, or undefined for none.
func (d *dec) object(r *reader) *interp.Object {
	v := d.value(r)
	o := v.Obj()
	if o == nil && !v.IsUndefined() {
		r.failf("expected an object reference, got %v", v)
	}
	return o
}

// prop reads one property record's value and defines it on o as key.
func (d *dec) prop(r *reader, o *interp.Object, key string) {
	bits := r.u8()
	if bits&2 != 0 {
		getter, setter := d.object(r), d.object(r)
		if r.err == nil {
			o.SetAccessor(key, getter, setter, bits&1 != 0)
		}
		return
	}
	v := d.value(r)
	switch {
	case r.err != nil:
	case bits&1 != 0:
		o.SetOwn(key, v)
	default:
		o.SetHidden(key, v)
	}
}
