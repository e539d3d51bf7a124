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

// wval is a parsed-but-unresolved wire value: object references cannot
// resolve until the node table is allocated, so parsing and resolution are
// separate passes.
type wval struct {
	tag byte
	num float64
	str string
	ref int
}

// raw parse forms of the table sections.
type rawProp struct {
	key            string
	bits           byte
	val            wval
	getter, setter wval
}

type rawObj struct {
	kind    byte
	class   string  // nodePlain
	funcID  int     // nodeClosure
	envRef  int     // nodeClosure
	frames  []wval  // nodeContinuation
	btarget wval    // nodeBound
	bthis   wval    // nodeBound
	bargs   []wval  // nodeBound
	dateMS  float64 // nodeDate
	proto   wval
	props   []rawProp
	elems   []wval
}

type rawEnv struct {
	parentRef int
	scopeID   int
	slots     []wval
}

type dec struct {
	in   *interp.Interp
	rt   *rt.R
	code *CodeTable
	reg  *Registry

	envs  []*interp.Env
	objs  []*interp.Object
	fills []func(rt.Frames) // continuation fills, indexed like objs (nil elsewhere)
}

// Decode rebuilds a blob's graph inside a freshly constructed realm. The
// realm must have been built from the same compiled program (the code
// fingerprint is checked) with its host registry taken at the standard
// construction point (the registry fingerprint is checked). The caller
// applies the returned state: SetRandState/SetAccounting on the
// interpreter, the loop's timer sequence, AdoptParked + Repost on the runtime.
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

	// Parse the env and object tables fully before allocating anything:
	// references point in both directions.
	rawEnvs := make([]rawEnv, r.count())
	for i := range rawEnvs {
		d.parseEnv(r, &rawEnvs[i])
	}
	rawObjs := make([]rawObj, r.count())
	for i := range rawObjs {
		d.parseObj(r, &rawObjs[i])
	}
	nbind := r.count()
	type binding struct {
		name string
		val  wval
	}
	bindings := make([]binding, nbind)
	for i := range bindings {
		bindings[i].name = r.str()
		bindings[i].val = d.rval(r)
	}
	type rawDeltaOp struct {
		kind  byte
		key   string
		prop  rawProp
		proto wval
		elems []wval
	}
	type rawDelta struct {
		ordinal int
		ops     []rawDeltaOp
	}
	deltas := make([]rawDelta, r.count())
	for i := range deltas {
		deltas[i].ordinal = r.ref()
		deltas[i].ops = make([]rawDeltaOp, r.count())
		for j := range deltas[i].ops {
			op := &deltas[i].ops[j]
			op.kind = r.u8()
			switch op.kind {
			case opSetProp:
				op.key = r.str()
				d.parseProp(r, &op.prop)
			case opDelProp:
				op.key = r.str()
			case opSetProto:
				op.proto = d.rval(r)
			case opSetElems:
				op.elems = make([]wval, r.count())
				for k := range op.elems {
					op.elems[k] = d.rval(r)
				}
			default:
				return nil, corruptf("unknown delta op %d", op.kind)
			}
		}
	}
	savedK := make([]wval, r.count())
	for i := range savedK {
		savedK[i] = d.rval(r)
	}
	result := d.rval(r)
	type rawTask struct {
		kind   byte
		due    float64
		fn     wval
		handle uint64
		args   []wval
		aux    bool
		frames []wval
	}
	var tasks []rawTask
	for i, n := 0, r.count(); i < n; i++ {
		pt := rawTask{kind: r.u8(), due: r.f64()}
		switch pt.kind {
		case taskTimer:
			pt.fn = d.rval(r)
			pt.handle = r.uvarint()
			cancelled := r.bool()
			pt.args = make([]wval, r.count())
			for j := range pt.args {
				pt.args[j] = d.rval(r)
			}
			if cancelled {
				// Written by a build that kept cleared timers queued: the
				// timer never fires, so it is not reposted.
				continue
			}
		case taskResume:
			pt.aux = r.bool()
			pt.frames = make([]wval, r.count())
			for j := range pt.frames {
				pt.frames[j] = d.rval(r)
			}
		default:
			return nil, corruptf("unknown pending task kind %d", pt.kind)
		}
		tasks = append(tasks, pt)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, corruptf("%d trailing bytes", len(r.buf)-r.off)
	}

	// Allocate environments, then wire parent chains (references may point
	// forward — discovery order walks child before parent).
	d.envs = make([]*interp.Env, len(rawEnvs))
	for i, re := range rawEnvs {
		layout := code.Scope(re.scopeID)
		if layout == nil || len(layout.Names) != len(re.slots) {
			return nil, corruptf("env %d: slot count %d does not match layout", i, len(re.slots))
		}
		d.envs[i] = in.RestoredSlotEnv(nil, layout, make([]interp.Value, len(re.slots)))
	}
	global := in.Global
	envOf := func(ref int) (*interp.Env, error) {
		if ref == 0 {
			return global, nil
		}
		if ref < 0 || ref-1 >= len(d.envs) {
			return nil, corruptf("env ref %d out of range", ref)
		}
		return d.envs[ref-1], nil
	}
	for i, re := range rawEnvs {
		p, err := envOf(re.parentRef)
		if err != nil {
			return nil, err
		}
		d.envs[i].SetRestoredParent(p)
	}
	// Every chain must end at the global scope: one that loops back on
	// itself would hang the first variable lookup that walks it, below any
	// step budget. rooted marks environments already known to reach it, so
	// the whole check is linear.
	rooted := make([]bool, len(rawEnvs))
	for i := range rawEnvs {
		hops := 0
		for ref := i + 1; ref != 0 && !rooted[ref-1]; ref = rawEnvs[ref-1].parentRef {
			if hops++; hops > len(rawEnvs) {
				return nil, corruptf("env %d: parent chain is cyclic", i)
			}
		}
		for ref := i + 1; ref != 0 && !rooted[ref-1]; ref = rawEnvs[ref-1].parentRef {
			rooted[ref-1] = true
		}
	}

	// Allocate objects. Closures pair a code-table function with a decoded
	// environment through the same construction path the evaluator uses,
	// so shape, escape marking, and co-allocation invariants all hold.
	d.objs = make([]*interp.Object, len(rawObjs))
	d.fills = make([]func(rt.Frames), len(rawObjs))
	for i, ro := range rawObjs {
		switch ro.kind {
		case nodePlain:
			d.objs[i] = &interp.Object{Class: ro.class}
		case nodeClosure:
			fn := code.Func(ro.funcID)
			if fn == nil {
				return nil, corruptf("object %d: function ID %d out of range", i, ro.funcID)
			}
			env, err := envOf(ro.envRef)
			if err != nil {
				return nil, err
			}
			d.objs[i] = in.NewClosure(fn, env)
		case nodeBottom:
			d.objs[i] = runtime.NewBottomNative()
		case nodeContinuation:
			k, fill := runtime.RestoredContinuation()
			d.objs[i] = k
			d.fills[i] = fill
		case nodeBound:
			// Two-phase like continuations: the BoundFunction is allocated
			// empty and its Target/This/Args are resolved in the fill loop,
			// since bound graphs can be cyclic (a bound function stored in
			// its own bound args).
			d.objs[i] = &interp.Object{Class: "Function", Bound: &interp.BoundFunction{}}
		case nodeDate:
			d.objs[i] = &interp.Object{Class: "Date", Date: &interp.DateData{MS: ro.dateMS}}
		default:
			return nil, corruptf("unknown object kind %d", ro.kind)
		}
	}

	// Fill environments.
	for i, re := range rawEnvs {
		env := d.envs[i]
		for j, wv := range re.slots {
			v, err := d.resolve(wv)
			if err != nil {
				return nil, err
			}
			env.SlotValues()[j] = v
		}
	}

	// Fill objects: prototype first (the shape tree roots off it), then
	// properties replayed in insertion order — re-interning the same
	// canonical shape in this realm's transition tree — then elements.
	for i, ro := range rawObjs {
		o := d.objs[i]
		proto, err := d.resolveObj(ro.proto)
		if err != nil {
			return nil, err
		}
		o.Proto = proto // pre-shape: no rebuild needed, nothing cached yet
		for _, rp := range ro.props {
			if err := d.applyProp(o, rp); err != nil {
				return nil, err
			}
		}
		if n := len(ro.elems); n > 0 {
			elems := make([]interp.Value, n)
			for j, wv := range ro.elems {
				v, err := d.resolve(wv)
				if err != nil {
					return nil, err
				}
				elems[j] = v
			}
			o.Elems = elems
		}
		if fill := d.fills[i]; fill != nil {
			frames, err := d.resolveFrames(ro.frames)
			if err != nil {
				return nil, err
			}
			fill(frames)
		}
		if b := o.Bound; b != nil {
			if b.Target, err = d.resolve(ro.btarget); err != nil {
				return nil, err
			}
			if b.This, err = d.resolve(ro.bthis); err != nil {
				return nil, err
			}
			if n := len(ro.bargs); n > 0 {
				b.Args = make([]interp.Value, n)
				for j, wv := range ro.bargs {
					if b.Args[j], err = d.resolve(wv); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Replay guest mutations of host objects.
	for _, delta := range deltas {
		target := reg.Object(delta.ordinal)
		if target == nil {
			return nil, corruptf("delta ordinal %d out of range", delta.ordinal)
		}
		for _, op := range delta.ops {
			switch op.kind {
			case opSetProp:
				if err := d.applyProp(target, rawProp{key: op.key, bits: op.prop.bits, val: op.prop.val, getter: op.prop.getter, setter: op.prop.setter}); err != nil {
					return nil, err
				}
			case opDelProp:
				target.Delete(op.key)
			case opSetProto:
				proto, err := d.resolveObj(op.proto)
				if err != nil {
					return nil, err
				}
				target.SetProto(proto)
			case opSetElems:
				elems := make([]interp.Value, len(op.elems))
				for j, wv := range op.elems {
					v, err := d.resolve(wv)
					if err != nil {
						return nil, err
					}
					elems[j] = v
				}
				target.Elems = elems
			}
		}
	}

	// Global bindings. Define writes through existing cells, so bindings
	// already cached by global inline caches keep their identity.
	for _, b := range bindings {
		v, err := d.resolve(b.val)
		if err != nil {
			return nil, err
		}
		global.Define(b.name, v)
	}

	frames, err := d.resolveFrames(savedK)
	if err != nil {
		return nil, err
	}
	res, err := d.resolve(result)
	if err != nil {
		return nil, err
	}
	out := &Decoded{
		Meta:   meta,
		State:  rt.ParkState{Paused: meta.Paused, Frames: frames, Aux: meta.SavedAux, Done: meta.Done},
		Result: res,
	}
	for _, t := range tasks {
		task := eventloop.Pending{Due: t.due, Handle: t.handle}
		if t.kind == taskTimer {
			fn, err := d.resolve(t.fn)
			if err != nil {
				return nil, err
			}
			timer := &interp.Timer{Fn: fn}
			if n := len(t.args); n > 0 {
				timer.Args = make([]interp.Value, n)
				for j, wv := range t.args {
					if timer.Args[j], err = d.resolve(wv); err != nil {
						return nil, err
					}
				}
			}
			task.Desc = timer
		} else {
			f, err := d.resolveFrames(t.frames)
			if err != nil {
				return nil, err
			}
			task.Desc = &rt.Resume{Frames: f, Aux: t.aux}
		}
		out.Tasks = append(out.Tasks, task)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

func (d *dec) rval(r *reader) wval {
	var v wval
	v.tag = r.u8()
	switch v.tag {
	case wvUndefined, wvNull, wvFalse, wvTrue:
	case wvNumber:
		v.num = r.f64()
	case wvString:
		v.str = r.str()
	case wvObjRef, wvHostRef:
		v.ref = r.ref()
	default:
		if r.err == nil {
			r.err = corruptf("unknown value tag %d", v.tag)
		}
	}
	return v
}

func (d *dec) parseProp(r *reader, p *rawProp) {
	p.bits = r.u8()
	if p.bits&2 != 0 {
		p.getter = d.rval(r)
		p.setter = d.rval(r)
		return
	}
	p.val = d.rval(r)
}

// parseEnv reads one frame: a slot frame with no by-name bindings, the only
// kind of frame a realm has besides its global one (emitEnvs). A blob that
// says otherwise asks for a frame shape no engine can run on.
func (d *dec) parseEnv(r *reader, re *rawEnv) {
	if kind := r.u8(); kind != envSlotFrame && r.err == nil {
		r.err = corruptf("unknown frame kind %d", kind)
	}
	re.parentRef = r.ref()
	re.scopeID = r.ref()
	re.slots = make([]wval, r.count())
	for i := range re.slots {
		re.slots[i] = d.rval(r)
	}
	if n := r.uvarint(); n != 0 && r.err == nil {
		r.err = corruptf("frame carries %d by-name bindings", n)
	}
}

func (d *dec) parseObj(r *reader, ro *rawObj) {
	ro.kind = r.u8()
	switch ro.kind {
	case nodePlain:
		ro.class = r.str()
	case nodeClosure:
		ro.funcID = r.ref()
		ro.envRef = r.ref()
	case nodeBottom:
	case nodeContinuation:
		ro.frames = make([]wval, r.count())
		for i := range ro.frames {
			ro.frames[i] = d.rval(r)
		}
	case nodeBound:
		ro.btarget = d.rval(r)
		ro.bthis = d.rval(r)
		ro.bargs = make([]wval, r.count())
		for i := range ro.bargs {
			ro.bargs[i] = d.rval(r)
		}
	case nodeDate:
		ro.dateMS = r.f64()
	default:
		if r.err == nil {
			r.err = corruptf("unknown object kind %d", ro.kind)
		}
		return
	}
	ro.proto = d.rval(r)
	ro.props = make([]rawProp, r.count())
	for i := range ro.props {
		ro.props[i].key = r.str()
		d.parseProp(r, &ro.props[i])
	}
	ro.elems = make([]wval, r.count())
	for i := range ro.elems {
		ro.elems[i] = d.rval(r)
	}
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

func (d *dec) resolve(v wval) (interp.Value, error) {
	switch v.tag {
	case wvUndefined:
		return interp.Undefined, nil
	case wvNull:
		return interp.Null, nil
	case wvFalse:
		return interp.False, nil
	case wvTrue:
		return interp.True, nil
	case wvNumber:
		return interp.NumberValue(v.num), nil
	case wvString:
		return interp.StringValue(v.str), nil
	case wvObjRef:
		if v.ref < 0 || v.ref >= len(d.objs) {
			return interp.Undefined, corruptf("object ref %d out of range", v.ref)
		}
		return interp.ObjectValue(d.objs[v.ref]), nil
	case wvHostRef:
		o := d.reg.Object(v.ref)
		if o == nil {
			return interp.Undefined, corruptf("host ref %d out of range", v.ref)
		}
		return interp.ObjectValue(o), nil
	}
	return interp.Undefined, corruptf("unknown value tag %d", v.tag)
}

// resolveObj resolves a wval that must be an object or undefined/nil.
func (d *dec) resolveObj(v wval) (*interp.Object, error) {
	val, err := d.resolve(v)
	if err != nil {
		return nil, err
	}
	if val.IsUndefined() {
		return nil, nil
	}
	o := val.Obj()
	if o == nil {
		return nil, corruptf("expected an object reference, got %v", val)
	}
	return o, nil
}

func (d *dec) resolveFrames(ws []wval) (rt.Frames, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	frames := make(rt.Frames, len(ws))
	for i, wv := range ws {
		v, err := d.resolve(wv)
		if err != nil {
			return nil, err
		}
		frames[i] = v
	}
	return frames, nil
}

func (d *dec) applyProp(o *interp.Object, rp rawProp) error {
	if rp.bits&2 != 0 {
		getter, err := d.resolveObj(rp.getter)
		if err != nil {
			return err
		}
		setter, err := d.resolveObj(rp.setter)
		if err != nil {
			return err
		}
		o.SetAccessor(rp.key, getter, setter, rp.bits&1 != 0)
		return nil
	}
	v, err := d.resolve(rp.val)
	if err != nil {
		return err
	}
	if rp.bits&1 != 0 {
		o.SetOwn(rp.key, v)
	} else {
		o.SetHidden(rp.key, v)
	}
	return nil
}
