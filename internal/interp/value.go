// Package interp is the JavaScript engine substrate: a tree-walking
// interpreter for the subset defined in internal/ast, with the semantics
// Stopify's transformations depend on — prototype chains, closures, the
// arguments object, getters and setters, implicit valueOf/toString
// conversions, try/catch/finally, constructors with new.target, and a
// browser-like native stack limit.
//
// The interpreter plays the role of V8/Chakra/SpiderMonkey/JavaScriptCore in
// the paper's evaluation. Given an engine.Profile it charges work units so
// that the browser-specific cost asymmetries (Figure 2b, Figure 11) are
// reproducible; given none, as in serving and the benchmark, it charges
// nothing. It is deliberately not a JIT: the paper's results are relative
// slowdowns, which survive a uniformly slower engine.
package interp

import (
	"fmt"
	"strconv"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/printer"
)

// Tag discriminates the payload of a Value.
type Tag uint8

// Value tags. TagUndefined is deliberately the zero tag so that the zero
// Value is JavaScript's undefined — never-written environment slots, cleared
// arena entries, and freshly grown operand stacks all read back correctly
// without an explicit fill.
const (
	TagUndefined Tag = iota
	TagNull
	TagBool
	TagNumber
	TagString
	TagObject

	// tagIter, tagCtor, tagArgs and tagAccessor are engine-internal: a
	// reified for-in iterator living on the bytecode operand stack, the
	// sentinel `this` that marks a native constructor call, a call's argument
	// vector in its callee's `arguments` slot (argsValue), and an accessor
	// property's getter/setter pair in its slot (accessorValue). None ever
	// escapes to user code, so the public predicates and conversions treat
	// them as undefined.
	tagIter
	tagCtor
	tagArgs
	tagAccessor
)

// Value is a JavaScript value in a struct-tagged, unboxed representation.
// Numbers, booleans, undefined, and null are carried entirely inline;
// strings are carried as a (data pointer, length) pair into the original Go
// string's bytes; objects are a single pointer. Nothing in this struct ever
// forces a heap allocation: passing a float64 or a string through a Value is
// free, which is what the interface{} representation it replaces could not
// provide (every non-interned float64 or string conversion heap-allocated a
// box).
//
// Layout (24 bytes): num carries the float64 payload for TagNumber and the
// 0/1 payload for TagBool; ptr carries the *Object for TagObject and the
// string data pointer for TagString; slen carries the string byte length.
// The GC scans ptr as an ordinary pointer, so the string backing array or
// object stays live for exactly as long as the Value does.
//
// Values must be compared with StrictEquals / SameValue, never with ==: a Go
// == on the struct would compare string payloads by pointer identity and
// NaNs bitwise, neither of which is a JavaScript equality.
type Value struct {
	num  float64
	ptr  unsafe.Pointer
	slen int32
	tag  Tag
}

// Interned singleton Values. These are package variables rather than
// constructor calls at use sites purely for readability; constructing the
// equivalent Value inline costs the same (nothing).
var (
	Undefined = Value{}
	Null      = Value{tag: TagNull}
	True      = Value{tag: TagBool, num: 1}
	False     = Value{tag: TagBool}
)

// NumberValue carries a float64 unboxed. The sign of -0 and the single
// canonical NaN are preserved exactly as Go represents them; no interning
// table is consulted — the representation itself is the fast path.
func NumberValue(f float64) Value {
	return Value{tag: TagNumber, num: f}
}

// MaxStringLen is the engine's maximum string length in bytes (1 GiB, in
// line with production engines' caps). Growth paths (concatenation,
// repeat) throw a RangeError beyond it; the limit also keeps every legal
// string length inside Value's 32-bit length field.
const MaxStringLen = 1 << 30

// StringValue carries a Go string unboxed: the Value aliases the string's
// bytes (data pointer + length), so no copy and no allocation happen here
// or on the way back out through Str. Strings beyond MaxStringLen cannot
// be represented; the growth paths enforce the cap with a JS RangeError
// before ever constructing one, so the panic here is a tripwire for
// engine bugs, not a reachable guest-code outcome.
func StringValue(s string) Value {
	if len(s) > MaxStringLen {
		panic("interp: string exceeds MaxStringLen (missing RangeError guard on a growth path)")
	}
	return Value{tag: TagString, ptr: unsafe.Pointer(unsafe.StringData(s)), slen: int32(len(s))}
}

// BoolValue returns True or False.
func BoolValue(b bool) Value {
	if b {
		return True
	}
	return False
}

// ObjectValue wraps an object pointer. A nil *Object becomes undefined so
// lookup helpers can return their zero result directly.
func ObjectValue(o *Object) Value {
	if o == nil {
		return Undefined
	}
	return Value{tag: TagObject, ptr: unsafe.Pointer(o)}
}

// Tag returns the value's tag.
func (v Value) Tag() Tag { return v.tag }

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.tag == TagUndefined }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.tag == TagNull }

// IsNullish reports whether v is undefined or null.
func (v Value) IsNullish() bool { return v.tag == TagUndefined || v.tag == TagNull }

// IsNumber reports whether v is a number.
func (v Value) IsNumber() bool { return v.tag == TagNumber }

// IsString reports whether v is a string.
func (v Value) IsString() bool { return v.tag == TagString }

// IsBool reports whether v is a boolean.
func (v Value) IsBool() bool { return v.tag == TagBool }

// IsObject reports whether v is an object.
func (v Value) IsObject() bool { return v.tag == TagObject }

// Num returns the float64 payload. Only meaningful for TagNumber (callers
// check the tag first; the engine never calls it blind).
func (v Value) Num() float64 { return v.num }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.num != 0 }

// Str reconstructs the Go string a TagString value carries. The returned
// string shares the original backing bytes; no copy is made.
func (v Value) Str() string {
	if v.slen == 0 {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.slen))
}

// Obj returns the object payload, or nil when v is not an object — so
// `if o := v.Obj(); o != nil` is the tagged replacement for the old
// two-value type assertion.
func (v Value) Obj() *Object {
	if v.tag != TagObject {
		return nil
	}
	return (*Object)(v.ptr)
}

// sameString reports payload equality of two TagString values, using
// pointer+length identity as the fast path before comparing bytes.
func sameString(a, b Value) bool {
	if a.slen != b.slen {
		return false
	}
	if a.ptr == b.ptr {
		return true
	}
	return a.Str() == b.Str()
}

// ctorSentinel marks native calls that originate from `new` (Construct
// passes it as `this`). It never escapes: every native either checks it or
// ignores its receiver.
var ctorSentinel = Value{tag: tagCtor}

func isCtorSentinel(v Value) bool { return v.tag == tagCtor }

// argsValue is the lazy `arguments` of a chunk-run call: (ptr, slen) over the
// caller's argument slice as a string Value is (ptr, slen) over its bytes. It
// lives only in the callee frame's ArgumentsSlot while that call is on the Go
// stack: the opcodes that read the slot build the object when asked for more
// than an element or the length, makeFunction when the frame escapes, and
// releaseFrame clears what is left (DESIGN_interp.md, "arguments").
func argsValue(args []Value) Value {
	return Value{tag: tagArgs, ptr: unsafe.Pointer(unsafe.SliceData(args)), slen: int32(len(args))}
}

// argVector is the argument slice an argsValue stands for.
func (v Value) argVector() []Value { return unsafe.Slice((*Value)(v.ptr), int(v.slen)) }

// ---------------------------------------------------------------------------
// Embedding-API conversion boundary
// ---------------------------------------------------------------------------

// FromGo converts a Go value into a Value at the embedding boundary. It
// accepts the Go types that hosts naturally produce; anything else becomes
// undefined. Hot engine paths never call it — they construct tagged Values
// directly.
func FromGo(x interface{}) Value {
	switch t := x.(type) {
	case nil:
		return Null
	case Value:
		return t
	case bool:
		return BoolValue(t)
	case float64:
		return NumberValue(t)
	case float32:
		return NumberValue(float64(t))
	case int:
		return NumberValue(float64(t))
	case int32:
		return NumberValue(float64(t))
	case int64:
		return NumberValue(float64(t))
	case uint:
		return NumberValue(float64(t))
	case uint32:
		return NumberValue(float64(t))
	case uint64:
		return NumberValue(float64(t))
	case string:
		return StringValue(t)
	case *Object:
		return ObjectValue(t)
	}
	return Undefined
}

// ToGo converts a Value back to a plain Go value at the embedding boundary:
// undefined and null map to nil (distinguish them with Tag before
// converting, if it matters), numbers to float64, strings to string,
// booleans to bool, and objects to *Object.
func (v Value) ToGo() interface{} {
	switch v.tag {
	case TagBool:
		return v.Bool()
	case TagNumber:
		return v.num
	case TagString:
		return v.Str()
	case TagObject:
		return (*Object)(v.ptr)
	}
	return nil
}

// String renders the value for debugging (fmt verbs). It never invokes user
// code; console.log output goes through Display instead.
func (v Value) String() string {
	switch v.tag {
	case TagUndefined:
		return "undefined"
	case TagNull:
		return "null"
	case TagBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case TagNumber:
		return printer.FormatNumber(v.num)
	case TagString:
		return strconv.Quote(v.Str())
	case TagObject:
		return "[object " + (*Object)(v.ptr).Class.String() + "]"
	}
	return "<internal>"
}

// NativeFunc is a function implemented in Go. Natives back the standard
// library and the Stopify runtime primitives.
type NativeFunc func(in *Interp, this Value, args []Value) (Value, error)

// Prop is one own property as the snapshot codec and the registry read it
// (OwnPropAt): its slot's Value and its enumerability, put together on the
// fly. No object stores a Prop. A slot is a bare Value, 24 bytes, and
// enumerability is its shape's (Shape.attrs). A data property's value is
// the slot itself; an accessor's getter and setter ride in it as an
// engine-internal pair (accessorValue), so the slot needs no pointer fields
// of its own. The slot's kind is also its shape's, and only code that has
// checked it reads the pair: the inline caches' data fast paths read the
// slot as they always have.
type Prop struct {
	Value      Value
	Enumerable bool
}

// accessorPair is an accessor property's getter and setter; either may be
// nil (a property defined with `get: undefined` has neither).
type accessorPair struct{ get, set *Object }

// accessorValue carries an accessor pair in a slot.
func accessorValue(get, set *Object) Value {
	return Value{tag: tagAccessor, ptr: unsafe.Pointer(&accessorPair{get, set})}
}

// pair returns the getter/setter pair an accessor slot carries, or nil for
// a data slot.
func (v Value) pair() *accessorPair {
	if v.tag != tagAccessor {
		return nil
	}
	return (*accessorPair)(v.ptr)
}

// IsAccessor reports whether the property is a getter/setter pair.
func (p Prop) IsAccessor() bool { return p.Value.tag == tagAccessor }

// Getter returns an accessor's getter; nil for a data property.
func (p Prop) Getter() *Object {
	if a := p.Value.pair(); a != nil {
		return a.get
	}
	return nil
}

// Setter returns an accessor's setter; nil for a data property.
func (p Prop) Setter() *Object {
	if a := p.Value.pair(); a != nil {
		return a.set
	}
	return nil
}

// Data returns a data property's value, and undefined for an accessor: the
// read for code that has not checked the property's kind.
func (p Prop) Data() Value {
	if p.Value.tag == tagAccessor {
		return Undefined
	}
	return p.Value
}

// Closure is the code and environment of a JavaScript function. The code —
// name, parameters, body, arrow-ness, frame layout — lives in the shared
// *ast.Func; duplicating those fields here would cost ~80 bytes per
// closure, and instrumented programs create closures on every call.
type Closure struct {
	Decl *ast.Func
	Env  *Env
	Self *Object // the function object, for named-expression self-reference
}

// Name returns the function's declared name ("" for anonymous).
func (c *Closure) Name() string { return c.Decl.Name }

// Params returns the parameter names.
func (c *Closure) Params() []string { return c.Decl.Params }

// Body returns the function body.
func (c *Closure) Body() []ast.Stmt { return c.Decl.Body }

// Arrow reports whether this is an arrow function (lexical this, no
// arguments object).
func (c *Closure) Arrow() bool { return c.Decl.Arrow }

// Class is an object's kind: one byte of its header, from a closed set. Its
// name is what Object.prototype.toString prints and what the snapshot wire
// writes for a plain object.
type Class uint8

// The classes. The two signal classes are the Stopify runtime's: the
// objects it throws to unwind the stack for a capture and for a restore.
const (
	ClassObject Class = iota
	ClassArray
	ClassFunction
	ClassError
	ClassArguments
	ClassDate
	ClassCaptureSignal
	ClassRestoreSignal
)

var classNames = [...]string{"Object", "Array", "Function", "Error", "Arguments", "Date", "CaptureSignal", "RestoreSignal"}

// String returns the class's name.
func (c Class) String() string { return classNames[c] }

// ClassNamed returns the class called name; ok is false when no class is.
func ClassNamed(name string) (c Class, ok bool) {
	for i, n := range classNames {
		if n == name {
			return Class(i), true
		}
	}
	return 0, false
}

// Object is everything with identity: plain objects, arrays, functions,
// errors, and the arguments object.
//
// The header is 96 bytes, a Go size class of its own (TestObjectLayout):
// what every object holds, and one word each for what only some do. A
// closure's code is co-allocated behind the header (funcObject), and
// everything rarer — a native's code, a bound function's state, a Date's
// time value, a host's data — is one side record behind one pointer.
type Object struct {
	Class Class

	// usedAsProto is set the first time an inline-cache fill walks across
	// this object as part of a prototype chain; from then on, layout changes
	// here bump protoEpoch to invalidate chain caches.
	usedAsProto bool

	Proto *Object

	// shape describes the own-property layout (see shape.go); slot i of
	// slots holds the property named shape.keys[i]. A nil shape means the
	// object has never had an own property.
	shape *Shape
	slots []Value

	// shapeRoot is the root of the transition tree for objects whose
	// prototype is this object (lazily created by emptyShapeFor).
	shapeRoot *Shape

	// Elems backs Array and Arguments objects.
	Elems []Value

	// Fn is a JavaScript function's closure. A native's code, like a bound
	// function's state, is in the side record.
	Fn *Closure

	// side is the record of a native, a bound function, a Date or an object
	// a host attached data to (SetExtra); nil on every other object.
	side *sideRecord
}

// sideRecord is what only some objects carry: a native's code and name, and
// a payload — a *BoundFunction (Function.prototype.bind's result), a
// *DateData (a Date instance), or the host's data (SetExtra).
type sideRecord struct {
	fn      NativeFunc
	name    string
	payload any
}

// nativeObject co-locates a native function's header with its side record,
// as funcObject does a closure's with its code, so creating one is a single
// allocation.
type nativeObject struct {
	obj  Object
	side sideRecord
}

// NewObject returns a plain object with the given prototype.
func NewObject(proto *Object) *Object {
	return &Object{Class: ClassObject, Proto: proto}
}

// NewBound returns a function object with a bound function's payload.
func NewBound(proto *Object, b *BoundFunction) *Object {
	return &Object{Class: ClassFunction, Proto: proto, side: &sideRecord{payload: b}}
}

// NewDate returns a Date instance holding the time value ms.
func NewDate(proto *Object, ms float64) *Object {
	return &Object{Class: ClassDate, Proto: proto, side: &sideRecord{payload: &DateData{MS: ms}}}
}

// IsNative reports whether o is a function implemented in Go.
func (o *Object) IsNative() bool { return o.side != nil && o.side.fn != nil }

// NativeName returns a native function's name; "" for any other object.
func (o *Object) NativeName() string {
	if o.side == nil {
		return ""
	}
	return o.side.name
}

// Bound returns the state of a function made by Function.prototype.bind;
// nil for any other object.
func (o *Object) Bound() *BoundFunction {
	b, _ := o.Extra().(*BoundFunction)
	return b
}

// Date returns a Date instance's time value; nil for any other object.
func (o *Object) Date() *DateData {
	d, _ := o.Extra().(*DateData)
	return d
}

// Extra returns the side record's payload: what a host attached with
// SetExtra (e.g. reified continuation frames owned by the Stopify runtime),
// or the engine's own, which Bound and Date read.
func (o *Object) Extra() any {
	if o.side == nil {
		return nil
	}
	return o.side.payload
}

// SetExtra attaches a host payload. The engine's own payloads share the
// field, so a host sets it only on objects it built as plain objects or
// natives. A native carries its side record already; any other object gets
// one here.
func (o *Object) SetExtra(x any) {
	if o.side == nil {
		o.side = &sideRecord{}
	}
	o.side.payload = x
}

// ReserveProps sizes an object's slot array for n properties before the
// first is added, so a caller that knows the count (a literal, a decoded
// record) allocates the array once, at its size.
func (o *Object) ReserveProps(n int) {
	if n > 0 && o.slots == nil {
		o.slots = make([]Value, 0, n)
	}
}

// BoundFunction is the state of a function produced by
// Function.prototype.bind: the target callable, the fixed receiver, and the
// partially-applied arguments. Calling prepends Args and uses This;
// constructing prepends Args and ignores This (spec §10.4.1.2).
type BoundFunction struct {
	Target Value
	This   Value
	Args   []Value
}

// DateData carries a Date instance's time value (epoch milliseconds).
type DateData struct {
	MS float64
}

// IsCallable reports whether o can be applied.
func (o *Object) IsCallable() bool {
	return o != nil && (o.Fn != nil || o.side != nil && (o.side.fn != nil || o.Bound() != nil))
}

// Own returns the own property slot for key, or nil: a data property's
// value, or an accessor's pair (which reads as undefined). The pointer is
// only valid until the next property addition (which may grow the slots
// array); callers read or write through it immediately.
func (o *Object) Own(key string) *Value {
	if i := o.shape.slotOf(key); i >= 0 {
		return &o.slots[i]
	}
	return nil
}

// ownPair returns the getter and setter of an own accessor named key; both
// nil when key is absent or a data property.
func (o *Object) ownPair(key string) (get, set *Object) {
	if slot := o.Own(key); slot != nil {
		if a := slot.pair(); a != nil {
			return a.get, a.set
		}
	}
	return nil, nil
}

// ensureShape materializes the empty root shape so the object can
// participate in shape compares before its first property.
func (o *Object) ensureShape() *Shape {
	if o.shape == nil {
		o.shape = emptyShapeFor(o.Proto)
	}
	return o.shape
}

// SetOwn defines or overwrites an own enumerable data property.
func (o *Object) SetOwn(key string, v Value) {
	o.setSlot(key, v, 0)
}

// SetHidden defines a non-enumerable data property (builtin methods).
func (o *Object) SetHidden(key string, v Value) {
	o.setSlot(key, v, attrHidden)
}

// SetAccessor installs a getter/setter pair (either or both may be nil).
func (o *Object) SetAccessor(key string, getter, setter *Object, enumerable bool) {
	o.setSlot(key, accessorValue(getter, setter), attrAccessor|hiddenUnless(enumerable))
}

// hiddenUnless is the attribute of a key that is enumerable or not.
func hiddenUnless(enumerable bool) attrs {
	if enumerable {
		return 0
	}
	return attrHidden
}

// setSlot defines or overwrites key with the slot v and the attributes a,
// whose kind must be v's.
func (o *Object) setSlot(key string, v Value, a attrs) {
	o.ensureShape()
	if i := o.shape.slotOf(key); i >= 0 {
		if o.shape.attrs[i] != a {
			o.setAttrs(i, a)
		}
		o.slots[i] = v
		return
	}
	next := o.shape.transition(key, a)
	if next == nil {
		// A frozen shape with no edge for this key: thaw first.
		next = o.shape.rebuild(o.ownRoot(), -1, -1, 0).transition(key, a)
	}
	o.shape = next
	if o.slots == nil {
		// An object nobody sized (ReserveProps) typically grows a handful
		// of properties right after creation; starting at capacity 4 turns
		// the 1→2→4 append reallocation ladder into a single allocation.
		o.slots = make([]Value, 0, 4)
	}
	o.slots = append(o.slots, v)
	if o.usedAsProto {
		bumpProtoEpoch()
	}
}

// setAttrs changes slot i's attributes in place: its kind (data↔accessor)
// or its enumerability. The shape is rebuilt from the root with the new
// attributes on this key's edge, so the object lands on a different
// (canonical) shape: cached fast paths that assumed the old attributes stop
// matching, and, because the attributes ride on the transition edge, later
// rebuilds (Delete, SetProto) preserve them. The caller writes the slot's
// new value when the kind changes.
func (o *Object) setAttrs(i int, a attrs) {
	o.shape = o.shape.rebuild(o.ownRoot(), -1, i, a)
	if o.usedAsProto {
		bumpProtoEpoch()
	}
}

// ownRoot returns the root a structural change rebuilds o's shape onto:
// the root of its own tree or, for a frozen shape, the realm's root for o's
// prototype, so the change thaws the object instead of writing a shape
// every realm shares (shape.go).
func (o *Object) ownRoot() *Shape {
	if o.shape.frozen() {
		return emptyShapeFor(o.Proto)
	}
	return o.shape.root
}

// SetProto replaces the prototype, re-rooting the shape under the new
// prototype's transition tree so every cache that guarded on the old shape
// (and therefore on the old prototype) misses.
func (o *Object) SetProto(proto *Object) {
	if o.Proto == proto {
		return
	}
	o.Proto = proto
	if o.shape != nil {
		o.shape = o.shape.rebuild(emptyShapeFor(proto), -1, -1, 0)
	}
	bumpProtoEpoch()
}

// ownOrLazySlot returns the slot index of own key, or -1, materializing
// the own properties a JavaScript function creates lazily — currently
// .length — so that closure creation allocates no property storage until
// something inspects it. Every own-property probe (reads, hasOwnProperty,
// property descriptors, defineProperty) funnels through here to keep the
// lazy set in one place; .prototype is also lazy but needs the interpreter
// to build an object, so it materializes in objGet.
func (o *Object) ownOrLazySlot(key string) int {
	if i := o.shape.slotOf(key); i >= 0 {
		return i
	}
	if key == "length" && o.Fn != nil {
		o.SetHidden("length", NumberValue(float64(len(o.Fn.Params()))))
		return o.shape.slotOf(key)
	}
	if key == "length" && o.Bound() != nil {
		o.SetHidden("length", NumberValue(boundLength(o)))
		return o.shape.slotOf(key)
	}
	return -1
}

// boundLength computes a bound function's .length: the ultimate target's
// parameter count minus every bound argument along the chain, clamped at
// zero (spec: BoundFunctionCreate). The walk is depth-capped because a
// hostile snapshot blob can, in principle, decode a bound cycle.
func boundLength(o *Object) float64 {
	drop, cur := 0, o
	for depth := 0; depth < 1000 && cur != nil && cur.Bound() != nil; depth++ {
		b := cur.Bound()
		drop += len(b.Args)
		cur = b.Target.Obj()
	}
	base := 0
	if cur != nil && cur.Fn != nil {
		base = len(cur.Fn.Params())
	}
	if n := base - drop; n > 0 {
		return float64(n)
	}
	return 0
}

// Delete removes an own property and reports whether it existed. The shape
// is rebuilt from the root without the deleted key (compacting the slots
// array to match), which both keeps later re-additions on the shared
// transition tree and invalidates every cache that guarded on the old
// shape.
func (o *Object) Delete(key string) bool {
	i := o.shape.slotOf(key)
	if i < 0 {
		return false
	}
	o.shape = o.shape.rebuild(o.ownRoot(), i, -1, 0)
	last := copy(o.slots[i:], o.slots[i+1:]) + i
	o.slots[last] = Value{} // the vacated slot must not keep its value alive
	o.slots = o.slots[:last]
	if o.usedAsProto {
		bumpProtoEpoch()
	}
	return true
}

// OwnKeys returns enumerable own property names in insertion order; for
// arrays the indices come first, as engines do.
func (o *Object) OwnKeys() []string {
	var out []string
	if o.Class == ClassArray || o.Class == ClassArguments {
		for i := range o.Elems {
			out = append(out, strconv.Itoa(i))
		}
	}
	if o.shape != nil {
		for i, k := range o.shape.keys {
			if o.shape.enumerable(i) {
				out = append(out, k)
			}
		}
	}
	return out
}

// arrayIndex parses key as a valid array index; ok is false otherwise.
func arrayIndex(key string) (int, bool) {
	if key == "" || len(key) > 10 {
		return 0, false
	}
	if key == "0" {
		return 0, true
	}
	if key[0] < '1' || key[0] > '9' {
		return 0, false
	}
	n := 0
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Thrown is a JavaScript exception propagating as a Go error.
type Thrown struct {
	Value Value
}

// Error implements error with a short description of the thrown value.
func (t *Thrown) Error() string {
	switch t.Value.tag {
	case TagString:
		return "Thrown: " + t.Value.Str()
	case TagObject:
		v := t.Value.Obj()
		if v.Class == ClassError {
			var name, msg string
			if s := v.Own("name"); s != nil && s.IsString() {
				name = s.Str()
			}
			if m := v.Own("message"); m != nil && m.IsString() {
				msg = m.Str()
			}
			return fmt.Sprintf("%s: %s", name, msg)
		}
		return "Thrown: [object " + v.Class.String() + "]"
	default:
		return fmt.Sprintf("Thrown: %v", t.Value)
	}
}

// Control-flow completions, modeled as errors so they unwind evaluation.

type breakErr struct{ label string }
type continueErr struct{ label string }
type returnErr struct{ value Value }

func (e *breakErr) Error() string    { return "break " + e.label }
func (e *continueErr) Error() string { return "continue " + e.label }
func (e *returnErr) Error() string   { return "return" }

// Unlabeled break/continue — the overwhelmingly common case — are interned
// so loop control never allocates. The structs are immutable after
// creation, so sharing is safe.
var (
	breakUnlabeled    = &breakErr{}
	continueUnlabeled = &continueErr{}
)
