package interp

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/printer"
)

// TypeOf implements the typeof operator.
func TypeOf(v Value) string {
	switch v.tag {
	case TagUndefined:
		return "undefined"
	case TagNull:
		return "object"
	case TagBool:
		return "boolean"
	case TagNumber:
		return "number"
	case TagString:
		return "string"
	case TagObject:
		if v.Obj().IsCallable() {
			return "function"
		}
		return "object"
	}
	return "undefined"
}

// Interned typeof results. With the tagged representation these cost
// nothing to construct, but the named values keep the evaluator's returns
// intention-revealing (and their payload pointers stable, which makes the
// string fast path in StrictEquals hit for `typeof x === typeof y`).
var (
	typeofUndefined = StringValue("undefined")
	typeofObject    = StringValue("object")
	typeofBoolean   = StringValue("boolean")
	typeofNumber    = StringValue("number")
	typeofString    = StringValue("string")
	typeofFunction  = StringValue("function")
)

// typeOfValue is TypeOf returning an interned Value.
func typeOfValue(v Value) Value {
	switch v.tag {
	case TagUndefined:
		return typeofUndefined
	case TagNull:
		return typeofObject
	case TagBool:
		return typeofBoolean
	case TagNumber:
		return typeofNumber
	case TagString:
		return typeofString
	case TagObject:
		if v.Obj().IsCallable() {
			return typeofFunction
		}
		return typeofObject
	}
	return typeofUndefined
}

// ToBoolean implements JS truthiness.
func ToBoolean(v Value) bool {
	switch v.tag {
	case TagUndefined, TagNull:
		return false
	case TagBool:
		return v.num != 0
	case TagNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case TagString:
		return v.slen != 0
	case TagObject:
		return true
	}
	return false
}

// ToNumber implements JS numeric coercion; objects go through ToPrimitive,
// which may run user valueOf/toString code.
func (in *Interp) ToNumber(v Value) (float64, error) {
	switch v.tag {
	case TagUndefined:
		return math.NaN(), nil
	case TagNull:
		return 0, nil
	case TagBool:
		return v.num, nil
	case TagNumber:
		return v.num, nil
	case TagString:
		return stringToNumber(v.Str()), nil
	case TagObject:
		prim, err := in.ToPrimitive(v, "number")
		if err != nil {
			return 0, err
		}
		return in.ToNumber(prim)
	}
	return math.NaN(), nil
}

func stringToNumber(s string) float64 {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0
	}
	if strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X") {
		if u, err := strconv.ParseUint(t[2:], 16, 64); err == nil {
			return float64(u)
		}
		return math.NaN()
	}
	if t == "Infinity" || t == "+Infinity" {
		return math.Inf(1)
	}
	if t == "-Infinity" {
		return math.Inf(-1)
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// ToStringValue implements JS string coercion; objects go through
// ToPrimitive with a string hint.
func (in *Interp) ToStringValue(v Value) (string, error) {
	switch v.tag {
	case TagUndefined:
		return "undefined", nil
	case TagNull:
		return "null", nil
	case TagBool:
		if v.num != 0 {
			return "true", nil
		}
		return "false", nil
	case TagNumber:
		return printer.FormatNumber(v.num), nil
	case TagString:
		return v.Str(), nil
	case TagObject:
		prim, err := in.ToPrimitive(v, "string")
		if err != nil {
			return "", err
		}
		if prim.IsObject() {
			return "", in.Throw("TypeError", "cannot convert object to primitive value")
		}
		return in.ToStringValue(prim)
	}
	return "", nil
}

// ToPrimitive converts an object by calling its valueOf/toString methods —
// the implicit calls of §4.1 that can hide infinite loops. Primitives pass
// through unchanged.
func (in *Interp) ToPrimitive(v Value, hint string) (Value, error) {
	o := v.Obj()
	if o == nil {
		return v, nil
	}
	methods := []string{"valueOf", "toString"}
	if hint == "string" {
		methods = []string{"toString", "valueOf"}
	}
	for _, name := range methods {
		m, err := in.GetMember(v, name)
		if err != nil {
			return Undefined, err
		}
		if f := m.Obj(); f.IsCallable() {
			r, err := in.callBack(m, v, nil)
			if err != nil {
				return Undefined, err
			}
			if !r.IsObject() {
				return r, nil
			}
		}
	}
	return Undefined, in.Throw("TypeError", "cannot convert object to primitive value")
}

// ToInt32 and ToUint32 implement the bitwise-operator coercions. The
// reduction must go through math.Mod, not int64: for |f| ≥ 2^63 the
// float→int64 conversion is out of range (undefined result, 0 in practice),
// which made 1e20|0 and 1e20>>>0 return 0 instead of 1661992960.
func ToInt32(f float64) int32 {
	return int32(ToUint32(f))
}

// ToUint32 truncates to an unsigned 32-bit integer per ES5 §9.6: truncate,
// reduce modulo 2^32, normalize into [0, 2^32).
func ToUint32(f float64) uint32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	const two32 = 4294967296
	f = math.Mod(math.Trunc(f), two32)
	if f < 0 {
		f += two32
	}
	return uint32(f)
}

// StrictEquals implements ===. Same-tag is required first; the number
// compare then falls out of Go's float compare (NaN != NaN included), and
// strings compare by payload with a pointer-identity fast path.
func StrictEquals(a, b Value) bool {
	if a.tag != b.tag {
		return false
	}
	switch a.tag {
	case TagUndefined, TagNull:
		return true
	case TagBool:
		return a.num == b.num
	case TagNumber:
		return a.num == b.num
	case TagString:
		return sameString(a, b)
	case TagObject:
		return a.ptr == b.ptr
	}
	return false
}

// looseEquals implements ==.
func (in *Interp) looseEquals(a, b Value) (bool, error) {
	aNullish := a.IsNullish()
	bNullish := b.IsNullish()
	switch {
	case aNullish && bNullish:
		return true, nil
	case aNullish || bNullish:
		return false, nil
	}
	if a.tag == b.tag && a.tag != TagObject {
		return StrictEquals(a, b), nil
	}
	aIsObj := a.IsObject()
	bIsObj := b.IsObject()
	switch {
	case aIsObj && bIsObj:
		return a.ptr == b.ptr, nil
	case aIsObj:
		prim, err := in.ToPrimitive(a, "default")
		if err != nil {
			return false, err
		}
		return in.looseEquals(prim, b)
	case bIsObj:
		prim, err := in.ToPrimitive(b, "default")
		if err != nil {
			return false, err
		}
		return in.looseEquals(a, prim)
	}
	// Mixed primitives: compare numerically, except bool normalization.
	an, err := in.ToNumber(a)
	if err != nil {
		return false, err
	}
	bn, err := in.ToNumber(b)
	if err != nil {
		return false, err
	}
	return an == bn, nil
}

// applyBinary implements the binary operators. Number/number and (for +)
// string/string operands take tag-checked fast paths that never allocate;
// everything else goes through the coercion ladder.
func (in *Interp) applyBinary(op string, l, r Value) (Value, error) {
	switch op {
	case "+":
		if l.tag == TagNumber && r.tag == TagNumber {
			return NumberValue(l.num + r.num), nil
		}
		lp, err := in.ToPrimitive(l, "default")
		if err != nil {
			return Undefined, err
		}
		rp, err := in.ToPrimitive(r, "default")
		if err != nil {
			return Undefined, err
		}
		if lp.IsString() || rp.IsString() {
			ls, err := in.ToStringValue(lp)
			if err != nil {
				return Undefined, err
			}
			rs, err := in.ToStringValue(rp)
			if err != nil {
				return Undefined, err
			}
			return in.concatStrings(ls, rs)
		}
		ln, err := in.ToNumber(lp)
		if err != nil {
			return Undefined, err
		}
		rn, err := in.ToNumber(rp)
		if err != nil {
			return Undefined, err
		}
		return NumberValue(ln + rn), nil
	case "-", "*", "/", "%", "**":
		ln, err := in.ToNumber(l)
		if err != nil {
			return Undefined, err
		}
		rn, err := in.ToNumber(r)
		if err != nil {
			return Undefined, err
		}
		switch op {
		case "-":
			return NumberValue(ln - rn), nil
		case "*":
			return NumberValue(ln * rn), nil
		case "/":
			return NumberValue(ln / rn), nil
		case "%":
			return NumberValue(math.Mod(ln, rn)), nil
		default:
			return NumberValue(math.Pow(ln, rn)), nil
		}
	case "<", ">", "<=", ">=":
		lp, err := in.ToPrimitive(l, "number")
		if err != nil {
			return Undefined, err
		}
		rp, err := in.ToPrimitive(r, "number")
		if err != nil {
			return Undefined, err
		}
		if lp.IsString() && rp.IsString() {
			ls, rs := lp.Str(), rp.Str()
			switch op {
			case "<":
				return BoolValue(ls < rs), nil
			case ">":
				return BoolValue(ls > rs), nil
			case "<=":
				return BoolValue(ls <= rs), nil
			default:
				return BoolValue(ls >= rs), nil
			}
		}
		ln, err := in.ToNumber(lp)
		if err != nil {
			return Undefined, err
		}
		rn, err := in.ToNumber(rp)
		if err != nil {
			return Undefined, err
		}
		if math.IsNaN(ln) || math.IsNaN(rn) {
			return False, nil
		}
		switch op {
		case "<":
			return BoolValue(ln < rn), nil
		case ">":
			return BoolValue(ln > rn), nil
		case "<=":
			return BoolValue(ln <= rn), nil
		default:
			return BoolValue(ln >= rn), nil
		}
	case "==":
		eq, err := in.looseEquals(l, r)
		return BoolValue(eq), err
	case "!=":
		eq, err := in.looseEquals(l, r)
		return BoolValue(!eq), err
	case "===":
		return BoolValue(StrictEquals(l, r)), nil
	case "!==":
		return BoolValue(!StrictEquals(l, r)), nil
	case "&", "|", "^", "<<", ">>":
		ln, err := in.ToNumber(l)
		if err != nil {
			return Undefined, err
		}
		rn, err := in.ToNumber(r)
		if err != nil {
			return Undefined, err
		}
		li := ToInt32(ln)
		ri := ToInt32(rn)
		switch op {
		case "&":
			return NumberValue(float64(li & ri)), nil
		case "|":
			return NumberValue(float64(li | ri)), nil
		case "^":
			return NumberValue(float64(li ^ ri)), nil
		case "<<":
			return NumberValue(float64(li << (uint32(ri) & 31))), nil
		default:
			return NumberValue(float64(li >> (uint32(ri) & 31))), nil
		}
	case ">>>":
		ln, err := in.ToNumber(l)
		if err != nil {
			return Undefined, err
		}
		rn, err := in.ToNumber(r)
		if err != nil {
			return Undefined, err
		}
		return NumberValue(float64(ToUint32(ln) >> (ToUint32(rn) & 31))), nil
	case "instanceof":
		f := r.Obj()
		if !f.IsCallable() {
			return Undefined, in.Throw("TypeError", "right-hand side of instanceof is not callable")
		}
		// `x instanceof boundFn` checks against the bound *target*'s
		// prototype (spec: bound-function [[HasInstance]] delegates). The
		// walk is depth-capped like boundLength.
		for depth := 0; depth < 1000 && f != nil && f.Bound() != nil; depth++ {
			r = f.Bound().Target
			f = r.Obj()
			if !f.IsCallable() {
				return Undefined, in.Throw("TypeError", "bound target is not callable")
			}
		}
		lo := l.Obj()
		if lo == nil {
			return False, nil
		}
		protoV, err := in.GetMember(r, "prototype")
		if err != nil {
			return Undefined, err
		}
		proto := protoV.Obj()
		for p := lo.Proto; p != nil; p = p.Proto {
			if p == proto {
				return True, nil
			}
		}
		return False, nil
	case "in":
		o := r.Obj()
		if o == nil {
			return Undefined, in.Throw("TypeError", "cannot use 'in' on a non-object")
		}
		key, err := in.ToStringValue(l)
		if err != nil {
			return Undefined, err
		}
		return BoolValue(in.hasProperty(o, key)), nil
	}
	return Undefined, in.Throw("SyntaxError", "unknown binary operator %s", op)
}

// concatStrings builds the concatenation, enforcing the engine's string
// length cap with the RangeError production engines throw — the Value
// representation's 32-bit length field must never see an oversized string.
func (in *Interp) concatStrings(ls, rs string) (Value, error) {
	n := len(ls) + len(rs)
	if n > MaxStringLen {
		return Undefined, in.Throw("RangeError", "Invalid string length")
	}
	// Pre-check: doubling concat in a loop reaches gigabytes in ~30
	// statements, so the meter must refuse the allocation, not bill it
	// after the fact.
	if err := in.checkMem(n); err != nil {
		return Undefined, err
	}
	in.chargeMem(n)
	return StringValue(ls + rs), nil
}

func (in *Interp) hasProperty(o *Object, key string) bool {
	if o.Class == ClassArray || o.Class == ClassArguments {
		if i, ok := arrayIndex(key); ok {
			return i < len(o.Elems)
		}
		if key == "length" {
			return true
		}
	}
	holder, _ := in.lookupPath(o, key)
	return holder != nil
}

// RawGet reads a data property without ever invoking a user getter — the
// Stopify getter sub-language's $get prelude invokes accessors itself, as
// instrumented calls, and uses this as its data-property fallback. Accessor
// slots read as undefined. Primitive receivers go through the normal path
// (their prototypes hold only natives).
func (in *Interp) RawGet(base Value, key string) (Value, error) {
	o := base.Obj()
	if o == nil {
		return in.GetMember(base, key)
	}
	// No PropCost charge here: the historical $rawGet native never charged,
	// and the engine cost model must not shift under the getter prelude.
	if o.Class == ClassArray || o.Class == ClassArguments {
		if key == "length" && o.Own("length") == nil {
			return NumberValue(float64(len(o.Elems))), nil
		}
		if i, isIdx := arrayIndex(key); isIdx && i < len(o.Elems) {
			return o.Elems[i], nil
		}
	}
	holder, idx := in.lookupPath(o, key)
	if holder == nil {
		if key == "prototype" && o.IsCallable() && o.Bound() == nil {
			return in.GetMember(base, key) // materialize the lazy prototype
		}
		return Undefined, nil
	}
	if v := holder.slots[idx]; v.tag != tagAccessor {
		return v, nil
	}
	return Undefined, nil
}

// LookupAccessor walks the prototype chain for a getter (setter false) or
// setter (setter true) without invoking it, for the $get/$set prelude. A
// data property shadows (returns undefined); an accessor lacking the
// requested side is skipped and the walk continues, matching the historical
// behavior of the runtime's $lookupGetter/$lookupSetter natives.
func (in *Interp) LookupAccessor(base Value, key string, setter bool) Value {
	o := base.Obj()
	if o == nil {
		return Undefined
	}
	if o.Class == ClassArray || o.Class == ClassArguments {
		// An element, and the native length, are found before any property;
		// an index write asks no chain.
		if i, isIdx := arrayIndex(key); isIdx && (setter || i < len(o.Elems)) || key == "length" && o.Own("length") == nil {
			return Undefined
		}
	}
	holder, idx := in.lookupPath(o, key)
	for holder != nil {
		a := holder.slots[idx].pair()
		if a == nil {
			return Undefined // plain data property shadows
		}
		if setter && a.set != nil {
			return ObjectValue(a.set)
		}
		if !setter && a.get != nil {
			return ObjectValue(a.get)
		}
		// Accessor lacking the requested side: keep walking from the next
		// prototype up.
		next := holder.Proto
		holder = nil
		for p := next; p != nil; p = p.Proto {
			if i := p.ownOrLazySlot(key); i >= 0 {
				holder, idx = p, i
				break
			}
		}
	}
	return Undefined
}

// getElemFast reads base[idx] for an integer index into an array or
// arguments object, skipping the float → string key → integer round-trip
// (and its allocation) of the generic path. ok is false when the fast path
// does not apply and the caller must fall back to GetMember.
func (in *Interp) getElemFast(base, idx Value) (Value, bool) {
	o := base.Obj()
	if o == nil || (o.Class != ClassArray && o.Class != ClassArguments) {
		return Undefined, false
	}
	if idx.tag != TagNumber {
		return Undefined, false
	}
	f := idx.num
	i := int(f)
	if float64(i) != f || i < 0 || i >= len(o.Elems) || (i == 0 && math.Signbit(f)) {
		// -0 falls back so the fast and string-key paths always agree on
		// which property it names, regardless of array length.
		return Undefined, false
	}
	in.chargeProp()
	return o.Elems[i], true
}

// setElemFast writes base[idx] = v for an integer index into an array,
// mirroring SetMember's element semantics (including growth) without the
// string key. Indexes at or beyond 2^31 and arguments-object writes past
// the end take the generic path, whose property-versus-element behavior
// differs.
func (in *Interp) setElemFast(base, idx, v Value) bool {
	o := base.Obj()
	if o == nil || (o.Class != ClassArray && o.Class != ClassArguments) {
		return false
	}
	if idx.tag != TagNumber {
		return false
	}
	f := idx.num
	i := int(f)
	if float64(i) != f || i < 0 || i >= 1<<31 || (i == 0 && math.Signbit(f)) {
		return false
	}
	if i >= len(o.Elems) {
		if o.Class == ClassArguments {
			return false // becomes an ordinary property; length unchanged
		}
		grow := i + 1 - len(o.Elems)
		if in.checkMem(grow*memValueBytes) != nil {
			// Over budget: decline the fast path and let setMemberSite's
			// growth pre-check surface ErrMemLimit.
			return false
		}
		in.chargeMem(grow * memValueBytes)
		for len(o.Elems) <= i {
			o.Elems = append(o.Elems, Undefined)
		}
	}
	in.chargeProp()
	o.Elems[i] = v
	return true
}

// GetMember reads base[key], invoking getters and routing primitive
// receivers to their builtin prototypes.
func (in *Interp) GetMember(base Value, key string) (Value, error) {
	return in.getMemberSite(base, key, 0)
}

// getMemberSite is GetMember with an inline-cache site (0 disables
// caching); non-computed member reads call it with the site internal/
// resolve assigned to their ast.Member node.
func (in *Interp) getMemberSite(base Value, key string, site uint32) (Value, error) {
	in.chargeProp()
	switch base.tag {
	case TagObject:
		return in.objGetSite(base.Obj(), base, key, site)
	case TagString:
		s := base.Str()
		if key == "length" {
			return NumberValue(float64(len(s))), nil
		}
		if i, ok := arrayIndex(key); ok {
			if i < len(s) {
				return StringValue(charView(s, i)), nil
			}
			return Undefined, nil
		}
		return in.protoGet(in.stringProto, base, key)
	case TagNumber:
		return in.protoGet(in.numberProto, base, key)
	case TagBool:
		return in.protoGet(in.booleanProto, base, key)
	case TagUndefined:
		return Undefined, in.Throw("TypeError", "cannot read property %q of undefined", key)
	case TagNull:
		return Undefined, in.Throw("TypeError", "cannot read property %q of null", key)
	}
	return Undefined, nil
}

func (in *Interp) protoGet(proto *Object, this Value, key string) (Value, error) {
	for p := proto; p != nil; p = p.Proto {
		if slot := p.Own(key); slot != nil {
			return in.readSlot(slot, this)
		}
	}
	return Undefined, nil
}

func (in *Interp) objGet(o *Object, this Value, key string) (Value, error) {
	return in.objGetSite(o, this, key, 0)
}

// objGetSite reads o[key] with an optional inline cache. A cache hit is a
// shape compare (plus, for prototype-chain hits, a holder-shape compare and
// an epoch check) followed by a direct slot read — no hash lookups. Class-
// special properties (array length and elements) never enter the cache;
// their pre-checks run first, exactly as the uncached walk always has.
func (in *Interp) objGetSite(o *Object, this Value, key string, site uint32) (Value, error) {
	if o.Class == ClassArray || o.Class == ClassArguments {
		if key == "length" {
			if o.Own("length") == nil { // arrays expose length natively
				return NumberValue(float64(len(o.Elems))), nil
			}
		}
		if i, ok := arrayIndex(key); ok {
			if i < len(o.Elems) {
				return o.Elems[i], nil
			}
			// fall through to props for sparse writes beyond Elems
		}
	}
	var c *getIC
	if site != 0 {
		shape := o.ensureShape()
		c = in.icGetAt(site)
		if c.shape == shape {
			var p *Value
			if c.holder == nil {
				p = &o.slots[c.slot]
			} else if c.holder.shape == c.hshape && c.epoch == protoEpoch.Load() {
				p = &c.holder.slots[c.slot]
			}
			if p != nil {
				if p.tag == tagAccessor {
					return in.readSlot(p, this)
				}
				return *p, nil
			}
		}
	}
	holder, idx := in.lookupPath(o, key)
	if holder == nil {
		// Functions materialize .prototype on first access (.length is
		// handled by the lazy slot probe inside the walk), so closure
		// creation allocates no property storage. Like .prototype, a
		// deleted .length resurfaces on the next inspection; this substrate
		// does not model configurability of builtin function properties.
		// Bound functions are excluded: per spec they have no .prototype
		// own property, and `new boundFn()` consults the target's instead.
		if key == "prototype" && o.IsCallable() && o.Bound() == nil {
			proto := in.NewPlainObject()
			proto.SetHidden("constructor", ObjectValue(o))
			o.SetHidden("prototype", ObjectValue(proto))
			return ObjectValue(proto), nil
		}
		return Undefined, nil
	}
	if c != nil {
		if holder == o {
			*c = getIC{shape: o.shape, slot: int32(idx)}
		} else {
			*c = getIC{shape: o.shape, holder: holder, hshape: holder.shape,
				slot: int32(idx), epoch: protoEpoch.Load()}
		}
	}
	return in.readSlot(&holder.slots[idx], this)
}

// readSlot reads a property through its slot: a data slot's value, an
// accessor's getter called on this, or undefined for a setter-only one.
func (in *Interp) readSlot(p *Value, this Value) (Value, error) {
	a := p.pair()
	if a == nil {
		return *p, nil
	}
	if a.get == nil {
		return Undefined, nil
	}
	return in.callBack(ObjectValue(a.get), this, nil)
}

// SetMember writes base[key] = v, invoking setters found on the prototype
// chain.
func (in *Interp) SetMember(base Value, key string, v Value) error {
	return in.setMemberSite(base, key, v, 0)
}

// setMemberSite is SetMember with an inline-cache site (0 disables
// caching). Two write kinds cache: overwriting an existing own data
// property (shape + slot), and adding a new property (a shape transition:
// old shape → new shape, value appended; guarded by protoEpoch so an
// accessor appearing anywhere on the chain invalidates the shortcut).
func (in *Interp) setMemberSite(base Value, key string, v Value, site uint32) error {
	in.chargeProp()
	o := base.Obj()
	if o == nil {
		switch base.tag {
		case TagUndefined:
			return in.Throw("TypeError", "cannot set property %q of undefined", key)
		case TagNull:
			return in.Throw("TypeError", "cannot set property %q of null", key)
		}
		return nil // writes to other primitives are silently dropped
	}
	if o.Class == ClassArray || o.Class == ClassArguments {
		if i, ok := arrayIndex(key); ok {
			if o.Class == ClassArguments && i >= len(o.Elems) {
				// Writing past the end of an arguments object creates an
				// ordinary property; its length never changes.
				in.chargeMem(memPropBytes + len(key))
				o.SetOwn(key, v)
				return nil
			}
			if grow := i + 1 - len(o.Elems); grow > 0 {
				// Pre-check: `a[2e9] = 1` is a one-statement multi-gigabyte
				// allocation, so refuse before growing, not after.
				if err := in.checkMem(grow * memValueBytes); err != nil {
					return err
				}
				in.chargeMem(grow * memValueBytes)
			}
			for len(o.Elems) <= i {
				o.Elems = append(o.Elems, Undefined)
			}
			o.Elems[i] = v
			return nil
		}
		if key == "length" && o.Class == ClassArray {
			n, err := in.ToNumber(v)
			if err != nil {
				return err
			}
			size := int(n)
			if size < 0 {
				return in.Throw("RangeError", "invalid array length")
			}
			if grow := size - len(o.Elems); grow > 0 {
				// Same pre-check as indexed growth: `a.length = 1e9` must die
				// by policy, not host OOM.
				if err := in.checkMem(grow * memValueBytes); err != nil {
					return err
				}
				in.chargeMem(grow * memValueBytes)
			}
			for len(o.Elems) < size {
				o.Elems = append(o.Elems, Undefined)
			}
			o.Elems = o.Elems[:size]
			return nil
		}
	}
	var c *setIC
	if site != 0 {
		shape := o.ensureShape()
		c = in.icSetAt(site)
		if c.shape == shape {
			if c.next == nil {
				// Existing own data property. Data-ness is shape-stable:
				// transition edges encode property kind, so an object with
				// an accessor at this key can never share this shape.
				o.slots[c.slot] = v
				return nil
			}
			if c.epoch == protoEpoch.Load() {
				in.chargeMem(memPropBytes + len(key))
				o.slots = append(o.slots, v)
				o.shape = c.next
				if o.usedAsProto {
					// Same obligation as the slow path (setSlot): a new key
					// on a prototype can shadow a cached chain hit.
					bumpProtoEpoch()
				}
				return nil
			}
		}
	}
	if holder, idx := in.lookupPath(o, key); holder != nil {
		slot := &holder.slots[idx]
		if a := slot.pair(); a != nil {
			if a.set == nil {
				return nil // getter-only property: silent failure (sloppy mode)
			}
			_, err := in.callBack(ObjectValue(a.set), base, []Value{v})
			return err
		}
		if holder == o {
			if c != nil {
				*c = setIC{shape: o.shape, slot: int32(idx)}
			}
			*slot = v
			return nil
		}
		// Data property on the chain: shadow it below.
	}
	// Reaching here means key is not an own property of o (an own data hit
	// returned above), so SetOwn appends a new slot: charge it.
	in.chargeMem(memPropBytes + len(key))
	oldShape := o.shape
	o.SetOwn(key, v)
	if c != nil && oldShape != nil {
		*c = setIC{shape: oldShape, next: o.shape,
			slot: int32(len(oldShape.keys)), epoch: protoEpoch.Load()}
	}
	return nil
}
