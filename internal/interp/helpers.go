package interp

import (
	"repro/internal/ast"
	"repro/internal/bytecode"
)

// helperOp is the operator an arithmetic or comparison helper applies.
var helperOp = [ast.NumIntrinsics]string{
	ast.IntrinsicAdd: "+", ast.IntrinsicSub: "-", ast.IntrinsicMul: "*", ast.IntrinsicDiv: "/",
	ast.IntrinsicMod: "%", ast.IntrinsicLt: "<", ast.IntrinsicLe: "<=", ast.IntrinsicGt: ">",
	ast.IntrinsicGe: ">=", ast.IntrinsicEq: "==", ast.IntrinsicNe: "!=",
}

// callHelper answers a call of the prelude helper h — under the implicits and
// getters sub-languages every `+`, `<` and `o.f` of guest code is one — with
// the raw operator's own implementation, or reports !ok and Call runs the
// closure on args. It answers only what cannot run guest code and would not
// overflow the stack: the conditions are DESIGN_interp.md "Implicit helpers".
func (in *Interp) callHelper(h ast.Intrinsic, args *[]Value) (Value, error, bool) {
	a := *args
	if h >= ast.IntrinsicGet && len(a) > 1 && a[1].tag == TagObject {
		return in.helperKey(args)
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
func (in *Interp) answerHelper(h ast.Intrinsic, x, y, z Value) (Value, error, bool) {
	if in.Mode != ast.ModeNormal || in.maxDepth-in.depth < 2 {
		return Undefined, nil, false
	}
	if h >= ast.IntrinsicGet {
		return in.callAccessorHelper(h == ast.IntrinsicSet, x, y, z)
	}
	if x.tag == TagObject || y.tag == TagObject {
		return Undefined, nil, false
	}
	switch h {
	case ast.IntrinsicToPrim:
		return x, nil, true
	case ast.IntrinsicNeg, ast.IntrinsicToNum:
		n, err := in.ToNumber(x)
		if h == ast.IntrinsicNeg {
			n = -n
		}
		return NumberValue(n), err, true
	}
	v, err := in.applyBinary(helperOp[h], x, y)
	return v, err, true
}

// helperKey is callHelper for $get(o, k) and $set(o, k, v) when k is an
// object: it converts k here, once — the body's two natives would each
// convert it — and the body runs on the string.
func (in *Interp) helperKey(args *[]Value) (Value, error, bool) {
	if in.Mode != ast.ModeNormal || in.maxDepth-in.depth < 2 {
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
// boundaries and a $get or $set key is not an object, which the plain call
// converts once. Otherwise it does nothing and the site's plain code runs.
func (in *Interp) siteHelper(s *bytecode.Site, consts, slots []Value) (bool, error) {
	if !in.siteNormal(bytecode.SiteEnterSteps + bytecode.SiteLeaveSteps) {
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
	if s.Helper >= ast.IntrinsicGet && a[1].tag == TagObject {
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

// AccessorNatives are the natives the $get/$set prelude is written in, by
// intrinsic: accessor lookup without invocation, accessor-free read and
// write. The runtime puts them in its table. Made once, not per realm.
var AccessorNatives [ast.IntrinsicRawSet + 1]NativeFunc

func init() {
	for k := ast.IntrinsicLookupGetter; k <= ast.IntrinsicRawSet; k++ {
		AccessorNatives[k] = func(in *Interp, this Value, args []Value) (Value, error) {
			if len(args) < 2 || (k == ast.IntrinsicRawSet && len(args) < 3) {
				return Undefined, nil
			}
			key, err := in.ToStringValue(args[1])
			if err != nil {
				return Undefined, err
			}
			switch k {
			case ast.IntrinsicRawGet:
				return in.RawGet(args[0], key)
			case ast.IntrinsicRawSet:
				return args[2], in.SetMember(args[0], key, args[2])
			}
			return in.LookupAccessor(args[0], key, k == ast.IntrinsicLookupSetter), nil
		}
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
	t := &in.table().Intrinsics
	t[ast.IntrinsicCreate] = in.NewNative("$create", createNative)
	t[ast.IntrinsicForInKeys] = in.NewNative("$forInKeys", forInKeysNative)
}
