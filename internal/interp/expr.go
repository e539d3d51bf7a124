package interp

import (
	"errors"
	"fmt"

	"repro/internal/ast"
)

// eval evaluates an expression in env. The switch tests cases in source
// order, so the hottest node kinds — identifier reads, assignments, calls,
// member reads, operators — come first.
func (in *Interp) eval(e ast.Expr, env *Env) (Value, error) {
	switch n := e.(type) {
	case *ast.Ident:
		return in.loadIdent(n, env)
	case *ast.Assign:
		return in.evalAssign(n, env)
	case *ast.Call:
		return in.evalCall(n, env)
	case *ast.Member:
		_, v, err := in.evalMember(n, env)
		return v, err
	case *ast.Binary:
		l, err := in.eval(n.L, env)
		if err != nil {
			return Undefined, err
		}
		r, err := in.eval(n.R, env)
		if err != nil {
			return Undefined, err
		}
		return in.applyBinary(n.Op, l, r)
	case *ast.Logical:
		l, err := in.eval(n.L, env)
		if err != nil {
			return Undefined, err
		}
		if n.Op == "&&" {
			if !ToBoolean(l) {
				return l, nil
			}
		} else if ToBoolean(l) {
			return l, nil
		}
		return in.eval(n.R, env)
	case *ast.Str:
		return StringValue(n.Value), nil
	case *ast.Number:
		return NumberValue(n.Value), nil
	case *ast.Cond:
		t, err := in.eval(n.Test, env)
		if err != nil {
			return Undefined, err
		}
		if ToBoolean(t) {
			return in.eval(n.Cons, env)
		}
		return in.eval(n.Alt, env)
	case *ast.Func:
		return ObjectValue(in.makeFunction(n, env)), nil
	case *ast.Unary:
		return in.evalUnary(n, env)
	case *ast.This:
		if n.Ref.Valid() {
			return env.GetRef(n.Ref), nil
		}
		if v, ok := env.Lookup("this"); ok {
			return v, nil
		}
		return Undefined, nil
	case *ast.Bool:
		return BoolValue(n.Value), nil
	case *ast.Null:
		return Null, nil
	case *ast.New:
		return in.evalNew(n, env)
	case *ast.Update:
		return in.evalUpdate(n, env)
	case *ast.NewTarget:
		if n.Ref.Valid() {
			return env.GetRef(n.Ref), nil
		}
		if v, ok := env.Lookup("new.target"); ok {
			return v, nil
		}
		return Undefined, nil
	case *ast.Array:
		elems := make([]Value, len(n.Elems))
		for i, el := range n.Elems {
			if el == nil {
				// Elision: this substrate's arrays are dense, so a hole is
				// an undefined element (it still counts toward length).
				continue
			}
			v, err := in.eval(el, env)
			if err != nil {
				return Undefined, err
			}
			elems[i] = v
		}
		in.chargeAlloc()
		return ObjectValue(in.NewArray(elems)), nil
	case *ast.Object:
		in.chargeAlloc()
		obj := in.NewPlainObject()
		in.chargeMem(memPropBytes * len(n.Props))
		for _, p := range n.Props {
			switch p.Kind {
			case ast.PropInit:
				v, err := in.eval(p.Value, env)
				if err != nil {
					return Undefined, err
				}
				obj.SetOwn(p.Key, v)
			case ast.PropGet, ast.PropSet:
				fn := in.makeFunction(p.Value.(*ast.Func), env)
				slot := obj.Own(p.Key)
				var getter, setter *Object
				if slot != nil {
					getter, setter = slot.Getter, slot.Setter
				}
				if p.Kind == ast.PropGet {
					getter = fn
				} else {
					setter = fn
				}
				obj.SetAccessor(p.Key, getter, setter, true)
			}
		}
		return ObjectValue(obj), nil
	case *ast.Seq:
		v := Undefined
		for _, x := range n.Exprs {
			var err error
			v, err = in.eval(x, env)
			if err != nil {
				return Undefined, err
			}
		}
		return v, nil
	}
	return Undefined, fmt.Errorf("interp: unknown expression %T", e)
}

// loadIdent reads a variable reference: a resolved coordinate indexes a slot,
// a proved-global name reads the global frame's cell, and a reference whose
// coordinate overflowed ast.Ref (env.go) finds its slot by name.
func (in *Interp) loadIdent(n *ast.Ident, env *Env) (Value, error) {
	if n.Ref.Valid() {
		return env.GetRef(n.Ref), nil
	}
	v, ok := in.lookupIdent(n, env)
	if !ok {
		return Undefined, in.Throw("ReferenceError", "%s is not defined", n.Name)
	}
	return v, nil
}

// lookupIdent is loadIdent without the ReferenceError (typeof tolerates
// unresolvable names).
func (in *Interp) lookupIdent(n *ast.Ident, env *Env) (Value, bool) {
	if n.Ref.Valid() {
		return env.GetRef(n.Ref), true
	}
	if n.Ref.Global() {
		if c := in.globalCell(n.Name, n.Site); c != nil {
			return c.v, true
		}
		return Undefined, false
	}
	return env.Lookup(n.Name)
}

// globalCell is the binding a proved-global reference names, or nil: no
// static scope binds the name, so only the global frame can. After the first
// by-name hit the site caches the cell, so repeat reads and writes are a
// pointer load; cells are never removed, so a cached one stays the binding.
// Both engines' global reads and writes come through here on a miss.
func (in *Interp) globalCell(name string, site uint32) *cell {
	if site == 0 {
		return in.Global.cells[name]
	}
	c := in.icCellAt(site)
	if c == nil {
		c = in.Global.cells[name]
		in.icGlobal[site] = c
	}
	return c
}

// setGlobal writes a proved-global reference, creating an implicit global
// when the name is bound nowhere (non-strict JS).
func (in *Interp) setGlobal(name string, site uint32, v Value) {
	if c := in.globalCell(name, site); c != nil {
		c.v = v
		return
	}
	in.Global.Define(name, v)
}

// setByName writes a reference that has no coordinate: the nearest binding of
// name, else an implicit global.
func (in *Interp) setByName(env *Env, name string, v Value) {
	if !env.Set(name, v) {
		in.Global.Define(name, v)
	}
}

// storeIdent writes a variable reference.
func (in *Interp) storeIdent(n *ast.Ident, v Value, env *Env) {
	switch {
	case n.Ref.Valid():
		env.SetRef(n.Ref, v)
	case n.Ref.Global():
		in.setGlobal(n.Name, n.Site, v)
	default:
		in.setByName(env, n.Name, v)
	}
}

func (in *Interp) memberKey(n *ast.Member, env *Env) (string, error) {
	if !n.Computed {
		return n.Name, nil
	}
	idx, err := in.eval(n.Index, env)
	if err != nil {
		return "", err
	}
	return in.ToStringValue(idx)
}

// evalMember evaluates a property read, returning the receiver alongside
// the value (callers use it for method-call `this`). Integer indexing into
// arrays and arguments objects takes an allocation-free path that never
// round-trips the index through a string key.
func (in *Interp) evalMember(n *ast.Member, env *Env) (base, v Value, err error) {
	base, err = in.eval(n.X, env)
	if err != nil {
		return Undefined, Undefined, err
	}
	if !n.Computed {
		v, err = in.getMemberSite(base, n.Name, n.Site)
		return base, v, err
	}
	idx, err := in.eval(n.Index, env)
	if err != nil {
		return Undefined, Undefined, err
	}
	if v, ok := in.getElemFast(base, idx); ok {
		return base, v, nil
	}
	key, err := in.ToStringValue(idx)
	if err != nil {
		return Undefined, Undefined, err
	}
	v, err = in.GetMember(base, key)
	return base, v, err
}

func (in *Interp) evalUnary(n *ast.Unary, env *Env) (Value, error) {
	switch n.Op {
	case "typeof":
		// typeof tolerates unresolvable identifiers.
		if id, ok := n.X.(*ast.Ident); ok {
			v, found := in.lookupIdent(id, env)
			if !found {
				return typeofUndefined, nil
			}
			return typeOfValue(v), nil
		}
		v, err := in.eval(n.X, env)
		if err != nil {
			return Undefined, err
		}
		return typeOfValue(v), nil
	case "delete":
		m, ok := n.X.(*ast.Member)
		if !ok {
			return True, nil
		}
		base, err := in.eval(m.X, env)
		if err != nil {
			return Undefined, err
		}
		key, err := in.memberKey(m, env)
		if err != nil {
			return Undefined, err
		}
		obj := base.Obj()
		if obj == nil {
			return True, nil
		}
		if obj.Class == "Array" || obj.Class == "Arguments" {
			// Element storage is separate from named properties, so this
			// path must not depend on whether the object has any (deleting
			// a[1] from an array that also has a.foo used to be a no-op).
			if i, isIdx := arrayIndex(key); isIdx && i < len(obj.Elems) {
				obj.Elems[i] = Undefined
				return True, nil
			}
		}
		obj.Delete(key)
		return True, nil
	}
	v, err := in.eval(n.X, env)
	if err != nil {
		return Undefined, err
	}
	switch n.Op {
	case "!":
		return BoolValue(!ToBoolean(v)), nil
	case "-":
		f, err := in.ToNumber(v)
		if err != nil {
			return Undefined, err
		}
		return NumberValue(-f), nil
	case "+":
		f, err := in.ToNumber(v)
		if err != nil {
			return Undefined, err
		}
		return NumberValue(f), nil
	case "~":
		f, err := in.ToNumber(v)
		if err != nil {
			return Undefined, err
		}
		return NumberValue(float64(^ToInt32(f))), nil
	case "void":
		return Undefined, nil
	}
	return Undefined, fmt.Errorf("interp: unknown unary op %q", n.Op)
}

// memberOnce is a member reference whose base and computed index were
// evaluated exactly once; Get and Set can both run without re-triggering
// their side effects. An object index is stringified eagerly (ToPrimitive
// may run user code); primitive indexes keep their value so element fast
// paths apply, stringifying on demand (side-effect-free for primitives).
type memberOnce struct {
	base   Value
	idx    Value
	key    string
	useKey bool
	site   uint32 // inline-cache site for non-computed references
}

func (in *Interp) evalMemberOnce(m *ast.Member, env *Env) (memberOnce, error) {
	var r memberOnce
	var err error
	r.base, err = in.eval(m.X, env)
	if err != nil {
		return r, err
	}
	if !m.Computed {
		r.key, r.useKey, r.site = m.Name, true, m.Site
		return r, nil
	}
	r.idx, err = in.eval(m.Index, env)
	if err != nil {
		return r, err
	}
	if r.idx.IsObject() {
		r.key, err = in.ToStringValue(r.idx)
		if err != nil {
			return r, err
		}
		r.useKey = true
	}
	return r, nil
}

// keyOnce stringifies the reference's index at most once across Get and
// Set, caching the result (safe: only primitive indexes reach here).
func (in *Interp) keyOnce(r *memberOnce) (string, error) {
	if !r.useKey {
		key, err := in.ToStringValue(r.idx)
		if err != nil {
			return "", err
		}
		r.key, r.useKey = key, true
	}
	return r.key, nil
}

func (in *Interp) getOnce(r *memberOnce) (Value, error) {
	if !r.useKey {
		if v, ok := in.getElemFast(r.base, r.idx); ok {
			return v, nil
		}
	}
	key, err := in.keyOnce(r)
	if err != nil {
		return Undefined, err
	}
	return in.getMemberSite(r.base, key, r.site)
}

func (in *Interp) setOnce(r *memberOnce, v Value) error {
	if !r.useKey {
		if in.setElemFast(r.base, r.idx, v) {
			return nil
		}
	}
	key, err := in.keyOnce(r)
	if err != nil {
		return err
	}
	return in.setMemberSite(r.base, key, v, r.site)
}

func (in *Interp) evalUpdate(n *ast.Update, env *Env) (Value, error) {
	var old Value
	var ref memberOnce
	switch t := n.X.(type) {
	case *ast.Ident:
		var err error
		old, err = in.loadIdent(t, env)
		if err != nil {
			return Undefined, err
		}
	case *ast.Member:
		var err error
		ref, err = in.evalMemberOnce(t, env)
		if err != nil {
			return Undefined, err
		}
		old, err = in.getOnce(&ref)
		if err != nil {
			return Undefined, err
		}
	default:
		return Undefined, in.Throw("SyntaxError", "invalid assignment target")
	}
	f, err := in.ToNumber(old)
	if err != nil {
		return Undefined, err
	}
	next := f + 1
	if n.Op == "--" {
		next = f - 1
	}
	nv := NumberValue(next)
	switch t := n.X.(type) {
	case *ast.Ident:
		in.storeIdent(t, nv, env)
	case *ast.Member:
		if err := in.setOnce(&ref, nv); err != nil {
			return Undefined, err
		}
	}
	if n.Prefix {
		return nv, nil
	}
	return NumberValue(f), nil
}

func (in *Interp) evalAssign(n *ast.Assign, env *Env) (Value, error) {
	if n.Op == "=" {
		v, err := in.eval(n.Value, env)
		if err != nil {
			return Undefined, err
		}
		return v, in.assignTo(n.Target, v, env)
	}
	// Compound assignment: evaluate the target reference once.
	binOp := n.Op[:len(n.Op)-1]
	switch t := n.Target.(type) {
	case *ast.Ident:
		old, err := in.loadIdent(t, env)
		if err != nil {
			return Undefined, err
		}
		rhs, err := in.eval(n.Value, env)
		if err != nil {
			return Undefined, err
		}
		v, err := in.applyBinary(binOp, old, rhs)
		if err != nil {
			return Undefined, err
		}
		in.storeIdent(t, v, env)
		return v, nil
	case *ast.Member:
		ref, err := in.evalMemberOnce(t, env)
		if err != nil {
			return Undefined, err
		}
		old, err := in.getOnce(&ref)
		if err != nil {
			return Undefined, err
		}
		rhs, err := in.eval(n.Value, env)
		if err != nil {
			return Undefined, err
		}
		v, err := in.applyBinary(binOp, old, rhs)
		if err != nil {
			return Undefined, err
		}
		return v, in.setOnce(&ref, v)
	}
	return Undefined, in.Throw("SyntaxError", "invalid assignment target")
}

func (in *Interp) assignTo(target ast.Expr, v Value, env *Env) error {
	switch t := target.(type) {
	case *ast.Ident:
		in.storeIdent(t, v, env)
		return nil
	case *ast.Member:
		ref, err := in.evalMemberOnce(t, env)
		if err != nil {
			return err
		}
		return in.setOnce(&ref, v)
	}
	return in.Throw("SyntaxError", "invalid assignment target")
}

// evalArgs evaluates an argument list into the interpreter's argument
// arena, a stack-disciplined scratch buffer that replaces the per-call
// slice allocation. The returned slice is valid until releaseArgs(mark);
// callees never retain it (JS calls copy arguments into frame slots and
// the arguments object; every native copies or reads before returning).
func (in *Interp) evalArgs(exprs []ast.Expr, env *Env) (args []Value, mark int, err error) {
	mark = len(in.argArena)
	for _, a := range exprs {
		v, err := in.eval(a, env)
		if err != nil {
			in.releaseArgs(mark)
			return nil, 0, err
		}
		in.argArena = append(in.argArena, v)
	}
	return in.argArena[mark:], mark, nil
}

// releaseArgs pops the arena back to mark, clearing the freed range so the
// arena does not pin dead object graphs.
func (in *Interp) releaseArgs(mark int) {
	live := in.argArena[:mark]
	for i := mark; i < len(in.argArena); i++ {
		in.argArena[i] = Value{}
	}
	in.argArena = live
}

func (in *Interp) evalCall(n *ast.Call, env *Env) (Value, error) {
	this := Undefined
	var fn Value
	if m, ok := n.Callee.(*ast.Member); ok {
		var err error
		this, fn, err = in.evalMember(m, env)
		if err != nil {
			return Undefined, err
		}
	} else {
		var err error
		fn, err = in.eval(n.Callee, env)
		if err != nil {
			return Undefined, err
		}
	}
	args, mark, err := in.evalArgs(n.Args, env)
	if err != nil {
		return Undefined, err
	}
	v, err := in.Call(fn, this, args, Undefined)
	in.releaseArgs(mark)
	return v, err
}

func (in *Interp) evalNew(n *ast.New, env *Env) (Value, error) {
	callee, err := in.eval(n.Callee, env)
	if err != nil {
		return Undefined, err
	}
	args, mark, err := in.evalArgs(n.Args, env)
	if err != nil {
		return Undefined, err
	}
	v, err := in.Construct(callee, args)
	in.releaseArgs(mark)
	return v, err
}

// argsObject co-locates an arguments object with inline element storage so
// materializing `arguments` costs one allocation for the common arities.
type argsObject struct {
	obj Object
	buf [4]Value
}

// newArguments builds the arguments object for a call (the elements are
// copied — the caller's slice is arena-backed and dies with the call).
func (in *Interp) newArguments(args []Value) *Object {
	in.argsBuilt++
	in.chargeMem(memObjectBytes + memValueBytes*len(args))
	a := new(argsObject)
	a.obj = Object{Class: "Arguments", Proto: in.objectProto}
	if len(args) <= len(a.buf) {
		a.obj.Elems = a.buf[:len(args):len(args)]
		copy(a.obj.Elems, args)
	} else {
		a.obj.Elems = append([]Value(nil), args...)
	}
	return &a.obj
}

// buildArguments replaces a still-lazy `arguments` slot (argsValue) with the
// object, built and metered now, and returns what the slot holds by then.
func (in *Interp) buildArguments(slot *Value) Value {
	if slot.tag == tagArgs {
		*slot = ObjectValue(in.newArguments(slot.argVector()))
	}
	return *slot
}

// ArgumentsBuilt counts the arguments objects this realm has built.
func (in *Interp) ArgumentsBuilt() uint64 { return uint64(in.argsBuilt) }

// Construct implements `new fn(args)`.
func (in *Interp) Construct(fn Value, args []Value) (Value, error) {
	f := fn.Obj()
	if !f.IsCallable() {
		return Undefined, in.Throw("TypeError", "%s is not a constructor", TypeOf(fn))
	}
	in.chargeNew()
	if b := f.Bound; b != nil {
		// `new boundFn(args)` constructs the *target* with the bound args
		// prepended; boundThis is ignored (spec §10.4.1.2 [[Construct]]).
		// The delegation consumes a stack frame so bound→bound chains
		// cannot recurse unboundedly.
		in.depth++
		if in.depth > in.maxDepth {
			in.depth--
			return Undefined, in.Throw("RangeError", "Maximum call stack size exceeded")
		}
		all := append(append(make([]Value, 0, len(b.Args)+len(args)), b.Args...), args...)
		v, err := in.Construct(b.Target, all)
		in.depth--
		return v, err
	}
	if f.Native != nil {
		// Native constructors (Error, Array, ...) allocate internally; mark
		// construction via a sentinel this.
		return f.Native(in, ctorSentinel, args)
	}
	protoV, err := in.GetMember(fn, "prototype")
	if err != nil {
		return Undefined, err
	}
	proto := protoV.Obj()
	if proto == nil {
		proto = in.objectProto
	}
	obj := NewObject(proto)
	res, err := in.Call(fn, ObjectValue(obj), args, fn)
	if err != nil {
		return Undefined, err
	}
	if res.IsObject() {
		return res, nil
	}
	return ObjectValue(obj), nil
}

// errNotResolved ends a run whose tree skipped internal/resolve: a function
// runs on the frame layout the resolver gave it, and there is no other way.
var errNotResolved = errors.New("interp: function was not resolved")

// Call applies fn to args with the given this and new.target. The callee may
// read args until Call returns (argsValue) and keeps nothing of it after: the
// caller owns the slice that long, or passes a copy of a guest-visible array.
func (in *Interp) Call(fn Value, this Value, args []Value, newTarget Value) (Value, error) {
	f := fn.Obj()
	if !f.IsCallable() {
		return Undefined, in.Throw("TypeError", "%s is not a function", TypeOf(fn))
	}
	in.chargeCall()
	if f.Native != nil {
		return f.Native(in, this, args)
	}
	if b := f.Bound; b != nil {
		// Bound call: the caller's this is discarded in favor of boundThis,
		// bound args are prepended. Depth-guarded like a closure call so a
		// self-referential bound chain (only constructible from a hostile
		// snapshot) hits the stack limit instead of hanging Go.
		in.depth++
		if in.depth > in.maxDepth {
			in.depth--
			return Undefined, in.Throw("RangeError", "Maximum call stack size exceeded")
		}
		all := append(append(make([]Value, 0, len(b.Args)+len(args)), b.Args...), args...)
		v, err := in.Call(b.Target, b.This, all, Undefined)
		in.depth--
		return v, err
	}
	c := f.Fn
	sc := c.Decl.Scope
	if sc == nil {
		return Undefined, errNotResolved
	}
	if h := c.Decl.Helper; h != ast.NoHelper {
		if v, err, ok := in.callHelper(h, &args); ok {
			return v, err
		}
	}
	in.depth++
	if in.depth > in.maxDepth {
		in.depth--
		return Undefined, in.Throw("RangeError", "Maximum call stack size exceeded")
	}
	// Shadow stack for the sampling profiler: both engines funnel every JS
	// call through here, so this one push/pop pair is the whole seam.
	if in.prof != nil {
		in.profPush(c.Decl.Name)
		defer in.profPop()
	}
	defer func() { in.depth-- }()

	// One slice-backed frame, laid out statically. The write order gives
	// rebound names (duplicate params, a param shadowing the function's own
	// name) last-write-wins semantics. The frame comes from the per-realm
	// pool and returns to it at exit unless a closure captured it during the
	// call (makeFunction sets escaped).
	env := in.acquireFrame(c.Env, sc)
	defer func() {
		if !env.escaped {
			in.releaseFrame(env)
		}
	}()
	slots := env.slots
	if sc.SelfSlot >= 0 {
		slots[sc.SelfSlot] = ObjectValue(c.Self)
	}
	for i, slot := range sc.ParamSlots {
		if i < len(args) {
			slots[slot] = args[i]
		} else {
			// The zero Value reads back as undefined; the explicit
			// write keeps last-write-wins for duplicate parameter names.
			slots[slot] = Undefined
		}
	}
	if sc.ThisSlot >= 0 {
		slots[sc.ThisSlot] = this
	}
	if sc.NewTargetSlot >= 0 {
		slots[sc.NewTargetSlot] = newTarget
	}
	var ch *chunk
	if in.bytecode {
		ch = chunkFor(c.Decl)
	}
	if sc.ArgumentsSlot >= 0 {
		// Only when the body names `arguments` (nothing else can see it):
		// a chunk reads the actuals in place, the walker builds the object.
		if ch != nil {
			slots[sc.ArgumentsSlot] = argsValue(args)
		} else {
			slots[sc.ArgumentsSlot] = ObjectValue(in.newArguments(args))
		}
	}
	for _, fd := range sc.FnDecls {
		slots[fd.Slot] = ObjectValue(in.makeFunction(fd.Fn, env))
	}
	// Engine dispatch: the body runs as its chunk when the realm runs
	// bytecode (dispatch.go) and the compiler did not refuse the function,
	// and walks the tree otherwise. Both engines receive the frame built
	// above, identical but for `arguments`.
	if ch != nil {
		return in.runChunk(ch, env)
	}
	err := in.execStmts(c.Decl.Body, env)
	switch e := err.(type) {
	case nil:
		return Undefined, nil
	case *returnErr:
		// The completion is consumed here, its only consumer, and nothing
		// else can hold it; recycle it (interp.go newReturn). A returnErr
		// must never be recycled twice or while still propagating.
		v := e.value
		e.value = Value{}
		in.retFree = append(in.retFree, e)
		return v, nil
	default:
		return Undefined, err
	}
}
