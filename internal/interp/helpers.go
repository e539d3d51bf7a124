package interp

import (
	"repro/internal/ast"
	"repro/internal/bytecode"
)

// helperOp is the operator an arithmetic or comparison helper applies.
var helperOp = [ast.NumHelpers]string{
	ast.HelperAdd: "+", ast.HelperSub: "-", ast.HelperMul: "*", ast.HelperDiv: "/",
	ast.HelperMod: "%", ast.HelperLt: "<", ast.HelperLe: "<=", ast.HelperGt: ">",
	ast.HelperGe: ">=", ast.HelperEq: "==", ast.HelperNe: "!=",
}

// helperIntact reports whether the global h, which a helper's body calls by
// name, still holds the realm's original: a marked node or native no guest makes.
func (in *Interp) helperIntact(h ast.Helper) bool {
	if in.helperCells == nil {
		in.helperCells = new([ast.HelperRawSet + 1]*cell)
	}
	c := in.helperCells[h]
	if c == nil {
		if c = in.Global.Cell(ast.HelperNames[h]); c == nil {
			return false
		}
		in.helperCells[h] = c
	}
	o := c.v.Obj()
	return o != nil && (o.helper == h || (o.Fn != nil && o.Fn.Decl.Helper == h))
}

// callHelper answers a call of the prelude helper h — under the implicits and
// getters sub-languages every `+`, `<` and `o.f` of guest code is one — with
// the raw operator's own implementation, or reports !ok and Call runs the
// closure on args. It answers only what cannot run guest code and would not
// overflow the stack: the conditions are DESIGN_interp.md "Implicit helpers".
func (in *Interp) callHelper(h ast.Helper, args *[]Value) (Value, error, bool) {
	a := *args
	if h >= ast.HelperGet && len(a) > 1 && a[1].tag == TagObject {
		return in.helperKey(h == ast.HelperSet, args)
	}
	return in.answerHelper(h, argAt(a, 0), argAt(a, 1), argAt(a, 2))
}

// argAt is args[i], undefined past the end.
func argAt(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined
}

// answerHelper is callHelper on the call's first three arguments, of which a
// $get or $set key is not an object.
func (in *Interp) answerHelper(h ast.Helper, x, y, z Value) (Value, error, bool) {
	if in.Mode != ast.ModeNormal || in.maxDepth-in.depth < 2 {
		return Undefined, nil, false
	}
	if h >= ast.HelperGet {
		return in.callAccessorHelper(h == ast.HelperSet, x, y, z)
	}
	// Every arithmetic body calls $toPrim, and $ne calls $eq.
	if x.tag == TagObject || y.tag == TagObject || !in.helperIntact(ast.HelperToPrim) ||
		(h == ast.HelperNe && !in.helperIntact(ast.HelperEq)) {
		return Undefined, nil, false
	}
	switch h {
	case ast.HelperToPrim:
		return x, nil, true
	case ast.HelperNeg, ast.HelperToNum:
		n, err := in.ToNumber(x)
		if h == ast.HelperNeg {
			n = -n
		}
		return NumberValue(n), err, true
	}
	v, err := in.applyBinary(helperOp[h], x, y)
	return v, err, true
}

// accessorIntact reports whether the natives the $get ($set) body calls are
// the realm's originals.
func (in *Interp) accessorIntact(set bool) bool {
	if set {
		return in.helperIntact(ast.HelperLookupSetter) && in.helperIntact(ast.HelperRawSet)
	}
	return in.helperIntact(ast.HelperLookupGetter) && in.helperIntact(ast.HelperRawGet)
}

// helperKey is callHelper for $get(o, k) and $set(o, k, v) when k is an
// object: it converts k here, once — the body's two natives would each
// convert it — and the body runs on the string.
func (in *Interp) helperKey(set bool, args *[]Value) (Value, error, bool) {
	if in.Mode != ast.ModeNormal || in.maxDepth-in.depth < 2 || !in.accessorIntact(set) {
		return Undefined, nil, false
	}
	key, err := in.ToStringValue((*args)[1])
	if err == nil {
		*args = append([]Value(nil), *args...)
		(*args)[1] = StringValue(key)
	}
	return Undefined, err, err != nil
}

// callAccessorHelper is callHelper for $get(o, k) and $set(o, k, v), k a
// primitive: what the body's lookup and raw access come to when the lookup
// finds nothing to call.
func (in *Interp) callAccessorHelper(set bool, o, k, v Value) (Value, error, bool) {
	if !in.accessorIntact(set) {
		return Undefined, nil, false
	}
	// An array element in place is never an accessor (LookupAccessor).
	if set {
		if in.setElemFast(o, k, v) {
			return v, nil, true
		}
	} else if e, ok := in.getElemFast(o, k); ok {
		return e, nil, true
	}
	key, _ := in.ToStringValue(k)
	if !set {
		return in.getData(o, key)
	}
	if !in.LookupAccessor(o, key, true).IsUndefined() {
		return Undefined, nil, false
	}
	return v, in.SetMember(o, key, v), true
}

// getData is the $get body's LookupAccessor and RawGet in one walk of the
// chain: what RawGet reads, or !ok when the walk meets an accessor, which the
// body runs whether or not it has a getter.
func (in *Interp) getData(base Value, key string) (Value, error, bool) {
	o := base.Obj()
	if o == nil {
		v, err := in.RawGet(base, key)
		return v, err, true
	}
	if o.Class == ClassArray || o.Class == ClassArguments {
		// An element, and the native length, shadow the chain (LookupAccessor).
		if i, isIdx := arrayIndex(key); isIdx && i < len(o.Elems) {
			return o.Elems[i], nil, true
		}
		if key == "length" && o.Own("length") == nil {
			return NumberValue(float64(len(o.Elems))), nil, true
		}
	}
	holder, idx := in.lookupPath(o, key)
	switch {
	case holder != nil && holder.slots[idx].tag == tagAccessor:
		return Undefined, nil, false
	case holder != nil:
		return holder.slots[idx], nil, true
	case key == "prototype" && o.IsCallable() && o.Bound() == nil:
		v, err := in.GetMember(base, key) // the lazy prototype, made now (RawGet)
		return v, err, true
	}
	return Undefined, nil, true
}

// siteHelper runs a fused helper site (bytecode.OpSiteHelper) when callHelper
// would answer the call inside it: it stores the answer into the target and -1
// into $lbl and counts the site's four boundaries, or, when the answer is a
// throw, counts the two the plain code counts before its call and returns it.
// It answers only when the site is normal-mode and trigger-free for all four
// boundaries, the callee's binding holds a closure whose code carries the
// site's helper mark — the mark, as Call tests it, not the name — and a $get or
// $set key is not an object, which the plain call converts once. Otherwise it
// does nothing and the site's plain code runs.
func (in *Interp) siteHelper(s *bytecode.Site, consts, slots []Value) (bool, error) {
	if !in.siteNormal(bytecode.SiteEnterSteps + bytecode.SiteLeaveSteps) {
		return false, nil
	}
	c := in.icCellAt(s.Callee)
	if c == nil {
		return false, nil
	}
	if f := c.v.Obj(); f == nil || f.Fn == nil || f.Fn.Decl.Helper != s.Helper {
		return false, nil
	}
	var a [3]Value
	for i, r := range s.Args[:s.NArgs] {
		if r >= 0 {
			a[i] = slots[r]
		} else {
			a[i] = consts[^r]
		}
	}
	if s.Helper >= ast.HelperGet && a[1].tag == TagObject {
		return false, nil
	}
	v, err, ok := in.answerHelper(s.Helper, a[0], a[1], a[2])
	switch {
	case !ok:
		return false, nil
	case err != nil:
		in.Steps += bytecode.SiteEnterSteps
		return false, err
	}
	slots[s.Target] = v
	slots[s.Label] = NumberValue(-1)
	in.Steps += bytecode.SiteEnterSteps + bytecode.SiteLeaveSteps
	return true, nil
}

// accessorNatives are the natives the $get/$set prelude is written in: accessor
// lookup without invocation, accessor-free read and write. Made once, not per realm.
var accessorNatives [ast.HelperRawSet + 1]NativeFunc // by mark

func init() {
	for h := ast.HelperLookupGetter; h <= ast.HelperRawSet; h++ {
		accessorNatives[h] = func(in *Interp, this Value, args []Value) (Value, error) {
			if len(args) < 2 || (h == ast.HelperRawSet && len(args) < 3) {
				return Undefined, nil
			}
			key, err := in.ToStringValue(args[1])
			if err != nil {
				return Undefined, err
			}
			switch h {
			case ast.HelperRawGet:
				return in.RawGet(args[0], key)
			case ast.HelperRawSet:
				return args[2], in.SetMember(args[0], key, args[2])
			}
			return in.LookupAccessor(args[0], key, h == ast.HelperLookupSetter), nil
		}
	}
}

// InstallAccessorNatives defines them, marked, in this realm.
func (in *Interp) InstallAccessorNatives() {
	for h := ast.HelperLookupGetter; h <= ast.HelperRawSet; h++ {
		n := in.NewNative(ast.HelperNames[h], accessorNatives[h])
		n.helper = h
		in.DefineGlobal(n.NativeName(), ObjectValue(n))
	}
}

// InstallDesugarNatives puts in this realm's intrinsic table the natives
// desugared code calls where it would otherwise call a builtin a guest may
// replace: $create allocates the object of a desugared `new` (the $construct
// prelude) as `new` does, and $forInKeys lists what a desugared for-in visits
// with the engines' own enumerator. The runtime installs them; so does
// anything else that runs desugared code, into a table lent here when the
// realm has none.
func (in *Interp) InstallDesugarNatives() {
	if in.poll == nil {
		in.poll = &Poll{}
	}
	in.poll.Intrinsics[ast.IntrinsicCreate] = in.NewNative("$create", createNative)
	in.poll.Intrinsics[ast.IntrinsicForInKeys] = in.NewNative("$forInKeys", forInKeysNative)
}
