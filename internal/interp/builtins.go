package interp

import (
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/printer"
)

// setupGlobals builds the prototypes and global bindings of a fresh realm.
// The library is the slice of ECMAScript that compiler-generated code and
// the paper's benchmarks actually touch. Its shapes are the process's
// frozen ones (shape.go): the realm follows their edges and builds none.
func (in *Interp) setupGlobals() { in.buildGlobals(hostShapeRoots()) }

// builtinProtos are the prototypes of the realm's builtin graph.
func (in *Interp) builtinProtos() [8]*Object {
	return [...]*Object{in.objectProto, in.functionProto, in.arrayProto, in.stringProto,
		in.numberProto, in.booleanProto, in.errorProto, in.dateProto}
}

// buildGlobals is setupGlobals on the shape roots frozen; nil builds the
// shapes instead. Either way it returns the roots the host objects grew
// from and leaves every builtin prototype's shapeRoot nil, so the guest's
// objects grow in the realm's own trees.
func (in *Interp) buildGlobals(frozen *hostRoots) (roots hostRoots) {
	in.objectProto = &Object{Class: ClassObject}
	in.functionProto = NewObject(in.objectProto)
	in.functionProto.Class = ClassFunction
	in.arrayProto = NewObject(in.objectProto)
	in.stringProto = NewObject(in.objectProto)
	in.numberProto = NewObject(in.objectProto)
	in.booleanProto = NewObject(in.objectProto)
	in.errorProto = NewObject(in.objectProto)
	in.dateProto = NewObject(in.objectProto)
	protos := in.builtinProtos()
	if frozen != nil {
		in.objectProto.shape = frozen[0]
		for i, p := range protos {
			p.shapeRoot = frozen[i+1]
		}
	}

	g := in.Global
	g.Define("undefined", Undefined)
	g.Define("NaN", NumberValue(math.NaN()))
	g.Define("Infinity", NumberValue(math.Inf(1)))

	in.setupObjectProto()
	in.setupFunctionProto()
	in.setupArray()
	in.setupString()
	in.setupNumberBoolean()
	in.setupError()
	in.setupMath()
	in.setupConsoleAndTimers()
	in.setupTopFunctions()

	roots[0] = in.objectProto.shape.root
	for i, p := range protos {
		roots[i+1], p.shapeRoot = p.shapeRoot, nil
	}
	return roots
}

func (in *Interp) native(name string, fn NativeFunc) *Object { return in.NewNative(name, fn) }

// nativeV is native returning the function object pre-wrapped as a Value,
// for the hidden-method tables below.
func (in *Interp) nativeV(name string, fn NativeFunc) Value {
	return ObjectValue(in.NewNative(name, fn))
}

func (in *Interp) setupObjectProto() {
	op := in.objectProto
	op.SetHidden("hasOwnProperty", in.nativeV("hasOwnProperty", func(in *Interp, this Value, args []Value) (Value, error) {
		o := this.Obj()
		if o == nil || len(args) == 0 {
			return False, nil
		}
		key, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		if (o.Class == ClassArray || o.Class == ClassArguments) && len(o.Elems) > 0 {
			if i, isIdx := arrayIndex(key); isIdx && i < len(o.Elems) {
				return True, nil
			}
		}
		return BoolValue(o.ownOrLazySlot(key) >= 0), nil
	}))
	op.SetHidden("toString", in.nativeV("toString", func(in *Interp, this Value, args []Value) (Value, error) {
		return StringValue("[object " + toStringTag(this) + "]"), nil
	}))

	objectCtor := in.native("Object", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) > 0 && args[0].IsObject() {
			return args[0], nil
		}
		in.chargeAlloc()
		return ObjectValue(in.NewPlainObject()), nil
	})
	objectCtor.SetHidden("prototype", ObjectValue(in.objectProto))
	objectCtor.SetHidden("create", in.nativeV("create", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 || !args[0].IsObject() && !args[0].IsNull() {
			return Undefined, in.Throw("TypeError", "Object prototype may only be an Object or null")
		}
		in.chargeAlloc()
		return ObjectValue(NewObject(args[0].Obj())), nil
	}))
	objectCtor.SetHidden("keys", in.nativeV("keys", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return ObjectValue(in.NewArray(nil)), nil
		}
		o := args[0].Obj()
		if o == nil {
			return Undefined, in.Throw("TypeError", "Object.keys called on non-object")
		}
		keys := o.OwnKeys()
		elems := make([]Value, len(keys))
		for i, k := range keys {
			elems[i] = StringValue(k)
		}
		return ObjectValue(in.NewArray(elems)), nil
	}))
	objectCtor.SetHidden("getPrototypeOf", in.nativeV("getPrototypeOf", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) > 0 {
			if o := args[0].Obj(); o != nil {
				if o.Proto == nil {
					return Null, nil
				}
				return ObjectValue(o.Proto), nil
			}
		}
		return Null, nil
	}))
	objectCtor.SetHidden("setPrototypeOf", in.nativeV("setPrototypeOf", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Undefined, in.Throw("TypeError", "Object.setPrototypeOf requires 2 arguments")
		}
		o := args[0].Obj()
		if o == nil {
			return args[0], nil // primitives pass through unchanged
		}
		var proto *Object
		switch args[1].Tag() {
		case TagObject:
			proto = args[1].Obj()
		case TagNull:
			proto = nil
		default:
			return Undefined, in.Throw("TypeError", "prototype must be an object or null")
		}
		for c := proto; c != nil; c = c.Proto {
			if c == o {
				return Undefined, in.Throw("TypeError", "cyclic prototype chain")
			}
		}
		o.SetProto(proto)
		return args[0], nil
	}))
	objectCtor.SetHidden("defineProperty", in.nativeV("defineProperty", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 3 {
			return Undefined, in.Throw("TypeError", "Object.defineProperty requires 3 arguments")
		}
		o := args[0].Obj()
		if o == nil {
			return Undefined, in.Throw("TypeError", "Object.defineProperty called on non-object")
		}
		key, err := in.ToStringValue(args[1])
		if err != nil {
			return Undefined, err
		}
		desc := args[2].Obj()
		if desc == nil {
			return Undefined, in.Throw("TypeError", "property descriptor must be an object")
		}
		if err := in.defineProperty(o, key, desc); err != nil {
			return Undefined, err
		}
		return args[0], nil
	}))
	objectCtor.SetHidden("getOwnPropertyDescriptor", in.nativeV("getOwnPropertyDescriptor", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Undefined, nil
		}
		o := args[0].Obj()
		if o == nil {
			return Undefined, nil
		}
		key, err := in.ToStringValue(args[1])
		if err != nil {
			return Undefined, err
		}
		i := o.ownOrLazySlot(key)
		if i < 0 {
			return Undefined, nil
		}
		d := in.NewPlainObject()
		if a := o.slots[i].pair(); a != nil {
			if a.get != nil {
				d.SetOwn("get", ObjectValue(a.get))
			}
			if a.set != nil {
				d.SetOwn("set", ObjectValue(a.set))
			}
		} else {
			d.SetOwn("value", o.slots[i])
		}
		d.SetOwn("enumerable", BoolValue(o.shape.enumerable(i)))
		return ObjectValue(d), nil
	}))
	in.Global.Define("Object", ObjectValue(objectCtor))
}

// toStringTag is the X of Object.prototype.toString's "[object X]": an
// object's class, Null or Undefined, and for any other primitive the class
// of the wrapper ToObject would make (ES5 §15.2.4.2).
func toStringTag(v Value) string {
	switch v.tag {
	case TagObject:
		return v.Obj().Class.String()
	case TagUndefined:
		return "Undefined"
	case TagNull:
		return "Null"
	case TagNumber:
		return "Number"
	case TagString:
		return "String"
	case TagBool:
		return "Boolean"
	}
	return "Object"
}

// defineProperty is Object.defineProperty over the one attribute this
// substrate models besides the kind (ES5 §8.12.9): a new key is what its
// descriptor says, non-enumerable unless it says otherwise, and a
// redefinition keeps every attribute its descriptor omits — enumerability,
// a data property's value, an accessor's other side.
func (in *Interp) defineProperty(o *Object, key string, desc *Object) error {
	var fields [4]Value
	var has [4]bool
	for i, name := range [...]string{"enumerable", "value", "get", "set"} {
		if has[i] = in.hasProperty(desc, name); has[i] {
			v, err := in.objGet(desc, ObjectValue(desc), name)
			if err != nil {
				return err
			}
			fields[i] = v
		}
	}
	enumV, value, getV, setV := fields[0], fields[1], fields[2], fields[3]
	cur := o.ownOrLazySlot(key)
	enumerable := cur >= 0 && o.shape.enumerable(cur)
	if has[0] {
		enumerable = ToBoolean(enumV)
	}
	switch {
	case has[2] || has[3]:
		get, set := o.ownPair(key)
		if has[2] {
			get = getV.Obj()
		}
		if has[3] {
			set = setV.Obj()
		}
		o.SetAccessor(key, get, set, enumerable)
	case cur >= 0 && !has[1]:
		// A generic descriptor moves only the attribute, and that moves
		// the shape.
		if a := o.shape.attrs[cur]&^attrHidden | hiddenUnless(enumerable); a != o.shape.attrs[cur] {
			o.setAttrs(cur, a)
		}
	default:
		o.setSlot(key, value, hiddenUnless(enumerable))
	}
	return nil
}

func (in *Interp) setupFunctionProto() {
	fp := in.functionProto
	fp.SetHidden("call", in.nativeV("call", func(in *Interp, this Value, args []Value) (Value, error) {
		callThis := Undefined
		var rest []Value
		if len(args) > 0 {
			callThis = args[0]
			rest = args[1:]
		}
		return in.Call(this, callThis, rest, Undefined)
	}))
	fp.SetHidden("apply", in.nativeV("apply", func(in *Interp, this Value, args []Value) (Value, error) {
		callThis := Undefined
		var rest []Value
		if len(args) > 0 {
			callThis = args[0]
		}
		if len(args) > 1 {
			switch args[1].Tag() {
			case TagObject:
				rest = append([]Value(nil), args[1].Obj().Elems...)
			case TagUndefined, TagNull:
			default:
				return Undefined, in.Throw("TypeError", "second argument to apply must be an array")
			}
		}
		return in.Call(this, callThis, rest, Undefined)
	}))
	fp.SetHidden("bind", in.nativeV("bind", func(in *Interp, this Value, args []Value) (Value, error) {
		if !this.Obj().IsCallable() {
			return Undefined, in.Throw("TypeError", "Function.prototype.bind called on non-callable")
		}
		boundThis := Undefined
		var bound []Value
		if len(args) > 0 {
			boundThis = args[0]
			bound = append([]Value(nil), args[1:]...)
		}
		// A data-backed function kind, not a native closure: the snapshot
		// codec traverses Target/This/Args like any other object graph.
		in.chargeAlloc()
		in.chargeMem(memObjectBytes + memValueBytes*len(bound))
		return ObjectValue(NewBound(in.functionProto, &BoundFunction{Target: this, This: boundThis, Args: bound})), nil
	}))
}

func (in *Interp) setupError() {
	ep := in.errorProto
	ep.SetHidden("name", StringValue("Error"))
	ep.SetHidden("message", StringValue(""))
	ep.SetHidden("toString", in.nativeV("toString", func(in *Interp, this Value, args []Value) (Value, error) {
		o := this.Obj()
		if o == nil {
			return StringValue("Error"), nil
		}
		nameV, err := in.objGet(o, this, "name")
		if err != nil {
			return Undefined, err
		}
		msgV, err := in.objGet(o, this, "message")
		if err != nil {
			return Undefined, err
		}
		name, _ := in.ToStringValue(nameV)
		msg, _ := in.ToStringValue(msgV)
		if msg == "" {
			return StringValue(name), nil
		}
		return in.concatStrings(name+": ", msg)
	}))
	mkErrCtor := func(name string) *Object {
		ctor := in.native(name, func(in *Interp, this Value, args []Value) (Value, error) {
			msg := ""
			if len(args) > 0 && !args[0].IsUndefined() {
				s, err := in.ToStringValue(args[0])
				if err != nil {
					return Undefined, err
				}
				msg = s
			}
			return ObjectValue(in.NewError(name, msg)), nil
		})
		ctor.SetHidden("prototype", ObjectValue(in.errorProto))
		in.Global.Define(name, ObjectValue(ctor))
		return ctor
	}
	mkErrCtor("Error")
	mkErrCtor("TypeError")
	mkErrCtor("RangeError")
	mkErrCtor("ReferenceError")
	mkErrCtor("SyntaxError")
}

func (in *Interp) setupMath() {
	m := in.NewPlainObject()
	m.ReserveProps(23) // the methods and constants below: one slot array, no regrowth
	one := func(name string, f func(float64) float64) {
		m.SetHidden(name, in.nativeV(name, func(in *Interp, this Value, args []Value) (Value, error) {
			x := math.NaN()
			if len(args) > 0 {
				v, err := in.ToNumber(args[0])
				if err != nil {
					return Undefined, err
				}
				x = v
			}
			return NumberValue(f(x)), nil
		}))
	}
	one("abs", math.Abs)
	one("floor", math.Floor)
	one("ceil", math.Ceil)
	one("sqrt", math.Sqrt)
	one("sin", math.Sin)
	one("cos", math.Cos)
	one("tan", math.Tan)
	one("atan", math.Atan)
	one("asin", math.Asin)
	one("acos", math.Acos)
	one("exp", math.Exp)
	one("log", math.Log)
	one("round", func(x float64) float64 { return math.Floor(x + 0.5) })
	one("trunc", math.Trunc)
	m.SetHidden("pow", in.nativeV("pow", func(in *Interp, this Value, args []Value) (Value, error) {
		x, y := math.NaN(), math.NaN()
		if len(args) > 0 {
			v, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			x = v
		}
		if len(args) > 1 {
			v, err := in.ToNumber(args[1])
			if err != nil {
				return Undefined, err
			}
			y = v
		}
		return NumberValue(math.Pow(x, y)), nil
	}))
	m.SetHidden("atan2", in.nativeV("atan2", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return NumberValue(math.NaN()), nil
		}
		y, err := in.ToNumber(args[0])
		if err != nil {
			return Undefined, err
		}
		x, err := in.ToNumber(args[1])
		if err != nil {
			return Undefined, err
		}
		return NumberValue(math.Atan2(y, x)), nil
	}))
	reduce := func(name string, init float64, better func(a, b float64) bool) {
		m.SetHidden(name, in.nativeV(name, func(in *Interp, this Value, args []Value) (Value, error) {
			best := init
			for _, a := range args {
				v, err := in.ToNumber(a)
				if err != nil {
					return Undefined, err
				}
				if math.IsNaN(v) {
					return NumberValue(math.NaN()), nil
				}
				if better(v, best) {
					best = v
				}
			}
			return NumberValue(best), nil
		}))
	}
	reduce("min", math.Inf(1), func(a, b float64) bool { return a < b })
	reduce("max", math.Inf(-1), func(a, b float64) bool { return a > b })
	m.SetHidden("random", in.nativeV("random", func(in *Interp, this Value, args []Value) (Value, error) {
		return NumberValue(in.Random()), nil
	}))
	m.SetHidden("PI", NumberValue(math.Pi))
	m.SetHidden("E", NumberValue(math.E))
	m.SetHidden("LN2", NumberValue(math.Ln2))
	m.SetHidden("SQRT2", NumberValue(math.Sqrt2))
	in.Global.Define("Math", ObjectValue(m))
}

func (in *Interp) setupConsoleAndTimers() {
	console := in.NewPlainObject()
	logFn := in.nativeV("log", func(in *Interp, this Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = in.Display(a)
		}
		in.WriteOut(strings.Join(parts, " ") + "\n")
		return Undefined, nil
	})
	console.SetHidden("log", logFn)
	console.SetHidden("error", logFn)
	console.SetHidden("warn", logFn)
	in.Global.Define("console", ObjectValue(console))

	// Date instances are plain objects with a time-value data slot; every
	// method lives on the shared Date.prototype so instances hold no
	// closures and the snapshot codec can carry them. Property insertion
	// order below is load-bearing: the host registry fingerprints the
	// pre-prelude DFS, so reordering it (or anything else the traversal
	// reaches) makes every blob written before the change refuse to restore
	// — a snapshot.Version bump, not a tidy-up.
	dp := in.dateProto
	timeSlot := func(this Value) (float64, bool) {
		if o := this.Obj(); o != nil {
			if d := o.Date(); d != nil {
				return d.MS, true
			}
		}
		return 0, false
	}
	getTime := in.nativeV("getTime", func(in *Interp, this Value, args []Value) (Value, error) {
		ms, ok := timeSlot(this)
		if !ok {
			return Undefined, in.Throw("TypeError", "this is not a Date object")
		}
		return NumberValue(ms), nil
	})
	dp.SetHidden("getTime", getTime)
	dp.SetHidden("valueOf", getTime)
	dp.SetHidden("toString", in.nativeV("toString", func(in *Interp, this Value, args []Value) (Value, error) {
		ms, ok := timeSlot(this)
		if !ok {
			return Undefined, in.Throw("TypeError", "this is not a Date object")
		}
		return StringValue(formatDateMS(ms)), nil
	}))
	date := in.native("Date", func(in *Interp, this Value, args []Value) (Value, error) {
		if !isCtorSentinel(this) {
			// Date(...) without new: a string of the current time, arguments
			// ignored (spec §21.4.2).
			return StringValue(formatDateMS(in.Clock.Now())), nil
		}
		ms := in.Clock.Now()
		if len(args) > 0 {
			v, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			ms = v
		}
		in.chargeAlloc()
		in.chargeMem(memObjectBytes)
		return ObjectValue(NewDate(in.dateProto, ms)), nil
	})
	date.SetHidden("now", in.nativeV("now", func(in *Interp, this Value, args []Value) (Value, error) {
		return NumberValue(in.Clock.Now()), nil
	}))
	date.SetHidden("prototype", ObjectValue(dp))
	dp.SetHidden("constructor", ObjectValue(date))
	in.Global.Define("Date", ObjectValue(date))

	in.Global.Define("setTimeout", in.nativeV("setTimeout", func(in *Interp, this Value, args []Value) (Value, error) {
		if in.Loop == nil {
			return Undefined, in.Throw("Error", "setTimeout requires an event loop")
		}
		if len(args) == 0 {
			return Undefined, in.Throw("TypeError", "setTimeout requires a callback")
		}
		t := &Timer{Fn: args[0]}
		delay := 0.0
		if len(args) > 1 {
			d, err := in.ToNumber(args[1])
			if err != nil {
				return Undefined, err
			}
			delay = d
		}
		if len(args) > 2 {
			t.Args = append([]Value(nil), args[2:]...)
		}
		in.chargeMem(memTimerBytes + memValueBytes*len(t.Args))
		return NumberValue(float64(in.PostTimer(0, t, delay))), nil
	}))
	in.Global.Define("clearTimeout", in.nativeV("clearTimeout", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 || in.Loop == nil {
			return Undefined, nil
		}
		idf, err := in.ToNumber(args[0])
		if err != nil {
			return Undefined, err
		}
		if idf == math.Trunc(idf) && idf >= 1 {
			in.Loop.ClearTimer(uint64(idf))
		}
		return Undefined, nil
	}))
}

// Timer is a pending setTimeout callback: the description its event-loop
// entry carries, which the snapshot codec serializes.
type Timer struct {
	Fn   Value
	Args []Value // forwarded to Fn; a copy taken at setTimeout
}

// PostTimer queues t on the realm's loop under handle h — the loop's next
// handle when h is 0 — and returns the handle. A restore reposts its timers
// here uncharged: the snapshot's meter reading already includes them.
func (in *Interp) PostTimer(h uint64, t *Timer, delayMs float64) uint64 {
	return in.Loop.PostTimer(h, func() {
		if in.RunTimer != nil {
			in.RunTimer(t.Fn, t.Args)
		} else if _, err := in.Call(t.Fn, Undefined, t.Args, Undefined); err != nil {
			in.reportUncaught(err)
		}
	}, delayMs, t)
}

// formatDateMS renders a time value the way Date.prototype.toString does,
// pinned to UTC so raw, stopified, and snapshot-restored runs print
// identically regardless of host timezone.
func formatDateMS(ms float64) string {
	if math.IsNaN(ms) || math.Abs(ms) > 8.64e15 {
		return "Invalid Date"
	}
	t := time.UnixMilli(int64(math.Floor(ms))).UTC()
	return t.Format("Mon Jan 02 2006 15:04:05") + " GMT+0000 (Coordinated Universal Time)"
}

func (in *Interp) reportUncaught(err error) {
	if in.Uncaught != nil {
		in.Uncaught(err)
		return
	}
	panic(err)
}

func (in *Interp) setupTopFunctions() {
	g := in.Global
	g.Define("parseInt", in.nativeV("parseInt", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return NumberValue(math.NaN()), nil
		}
		s, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		radix := 10
		if len(args) > 1 {
			r, err := in.ToNumber(args[1])
			if err != nil {
				return Undefined, err
			}
			if r != 0 {
				radix = int(r)
			}
		}
		s = strings.TrimSpace(s)
		neg := false
		if strings.HasPrefix(s, "-") {
			neg = true
			s = s[1:]
		} else if strings.HasPrefix(s, "+") {
			s = s[1:]
		}
		if radix == 16 || radix == 10 {
			if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
				s = s[2:]
				radix = 16
			}
		}
		end := 0
		for end < len(s) {
			c := s[end]
			var d int
			switch {
			case c >= '0' && c <= '9':
				d = int(c - '0')
			case c >= 'a' && c <= 'z':
				d = int(c-'a') + 10
			case c >= 'A' && c <= 'Z':
				d = int(c-'A') + 10
			default:
				d = 99
			}
			if d >= radix {
				break
			}
			end++
		}
		if end == 0 {
			return NumberValue(math.NaN()), nil
		}
		u, perr := strconv.ParseUint(s[:end], radix, 64)
		if perr != nil {
			return NumberValue(math.NaN()), nil
		}
		v := float64(u)
		if neg {
			v = -v
		}
		return NumberValue(v), nil
	}))
	g.Define("parseFloat", in.nativeV("parseFloat", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return NumberValue(math.NaN()), nil
		}
		s, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		s = strings.TrimSpace(s)
		end := 0
		seenDot, seenExp := false, false
		for end < len(s) {
			c := s[end]
			if c >= '0' && c <= '9' {
				end++
				continue
			}
			if (c == '+' || c == '-') && (end == 0 || s[end-1] == 'e' || s[end-1] == 'E') {
				end++
				continue
			}
			if c == '.' && !seenDot && !seenExp {
				seenDot = true
				end++
				continue
			}
			if (c == 'e' || c == 'E') && !seenExp && end > 0 {
				seenExp = true
				end++
				continue
			}
			break
		}
		f, perr := strconv.ParseFloat(strings.TrimRight(s[:end], "eE+-"), 64)
		if perr != nil {
			return NumberValue(math.NaN()), nil
		}
		return NumberValue(f), nil
	}))
	g.Define("isNaN", in.nativeV("isNaN", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return True, nil
		}
		f, err := in.ToNumber(args[0])
		if err != nil {
			return Undefined, err
		}
		return BoolValue(math.IsNaN(f)), nil
	}))
	g.Define("isFinite", in.nativeV("isFinite", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return False, nil
		}
		f, err := in.ToNumber(args[0])
		if err != nil {
			return Undefined, err
		}
		return BoolValue(!math.IsNaN(f) && !math.IsInf(f, 0)), nil
	}))
	g.Define("eval", in.nativeV("eval", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Undefined, nil
		}
		if !args[0].IsString() {
			return args[0], nil // eval of a non-string returns it unchanged
		}
		src := args[0].Str()
		if in.EvalHook == nil {
			return Undefined, in.Throw("Error", "eval is not enabled in this configuration")
		}
		prog, err := in.EvalHook(src)
		if err != nil {
			return Undefined, in.Throw("SyntaxError", "eval: %v", err)
		}
		if rerr := in.RunProgram(prog); rerr != nil {
			return Undefined, rerr
		}
		return Undefined, nil
	}))
}

// Display renders a value for console.log without invoking user code, so
// that instrumented and raw runs print identically.
func (in *Interp) Display(v Value) string {
	return in.displayDepth(v, 0)
}

func (in *Interp) displayDepth(v Value, depth int) string {
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
		return v.Str()
	case TagObject:
		x := v.Obj()
		if depth > 3 {
			return "..."
		}
		switch {
		case x.IsCallable():
			name := x.NativeName()
			if x.Fn != nil {
				name = x.Fn.Name()
			}
			if x.Bound() != nil {
				name = "bound"
			}
			if name == "" {
				name = "anonymous"
			}
			return "[function " + name + "]"
		case x.Class == ClassArray || x.Class == ClassArguments:
			parts := make([]string, len(x.Elems))
			for i, el := range x.Elems {
				parts[i] = in.displayDepth(el, depth+1)
			}
			return strings.Join(parts, ",")
		case x.Class == ClassError:
			name := "Error"
			msg := ""
			if s := x.Own("name"); s != nil {
				name = ""
				if s.IsString() {
					name = s.Str()
				}
			}
			if s := x.Own("message"); s != nil {
				if s.IsString() {
					msg = s.Str()
				}
			}
			if msg == "" {
				return name
			}
			return name + ": " + msg
		default:
			return "[object " + x.Class.String() + "]"
		}
	}
	return "?"
}
