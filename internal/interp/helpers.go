package interp

import "repro/internal/ast"

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
	if !in.HelpersLive || in.maxDepth-in.depth < 2 {
		return Undefined, nil, false
	}
	var a [3]Value
	copy(a[:], *args)
	if h >= ast.HelperGet {
		return in.callAccessorHelper(h == ast.HelperSet, a[0], a[1], a[2], args)
	}
	// Every arithmetic body calls $toPrim, and $ne calls $eq.
	if a[0].tag == TagObject || a[1].tag == TagObject || !in.helperIntact(ast.HelperToPrim) ||
		(h == ast.HelperNe && !in.helperIntact(ast.HelperEq)) {
		return Undefined, nil, false
	}
	switch h {
	case ast.HelperToPrim:
		return a[0], nil, true
	case ast.HelperNeg, ast.HelperToNum:
		n, err := in.ToNumber(a[0])
		if h == ast.HelperNeg {
			n = -n
		}
		return NumberValue(n), err, true
	}
	v, err := in.applyBinary(helperOp[h], a[0], a[1])
	return v, err, true
}

// callAccessorHelper is callHelper for $get(o, k) and $set(o, k, v): what the
// body's lookup and raw access come to when the lookup finds nothing to call.
func (in *Interp) callAccessorHelper(set bool, o, k, v Value, args *[]Value) (Value, error, bool) {
	lookup, raw := ast.HelperLookupGetter, ast.HelperRawGet
	if set {
		lookup, raw = ast.HelperLookupSetter, ast.HelperRawSet
	}
	if !in.helperIntact(lookup) || !in.helperIntact(raw) {
		return Undefined, nil, false
	}
	if k.tag == TagObject {
		// Converted here, once: the body's two natives would each convert it.
		key, err := in.ToStringValue(k)
		if err == nil && len(*args) > 1 {
			*args = append([]Value(nil), *args...)
			(*args)[1] = StringValue(key)
		}
		return Undefined, err, err != nil
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
	if !in.LookupAccessor(o, key, set).IsUndefined() {
		return Undefined, nil, false
	}
	if set {
		return v, in.SetMember(o, key, v), true
	}
	e, err := in.RawGet(o, key)
	return e, err, true
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

// InstallDesugarNatives defines, in this realm, the natives desugared code
// calls where it would otherwise call a builtin a guest may replace: $create
// allocates the object of a desugared `new` (the $construct prelude) as `new`
// does, and $forInKeys lists what a desugared for-in visits with the
// engines' own enumerator. The runtime installs them; so does anything else
// that runs desugared code.
func (in *Interp) InstallDesugarNatives() {
	in.DefineGlobal("$create", ObjectValue(in.NewNative("$create", createNative)))
	in.DefineGlobal("$forInKeys", ObjectValue(in.NewNative("$forInKeys", forInKeysNative)))
}
