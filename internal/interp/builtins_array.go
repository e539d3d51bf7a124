package interp

import (
	"sort"
	"strings"
)

// popElem removes and returns a's last element, which must exist, zeroing
// the vacated slot so the backing array does not keep the value alive.
func popElem(a *Object) Value {
	n := len(a.Elems) - 1
	v := a.Elems[n]
	a.Elems[n] = Undefined
	a.Elems = a.Elems[:n]
	return v
}

// setupArray installs the Array constructor and Array.prototype. Methods
// that accept callbacks (sort, forEach, map, filter, reduce) call back into
// JavaScript through a native frame; programs compiled with Stopify must not
// capture continuations inside such callbacks (compiler-generated code in
// practice defines its own higher-order helpers in JS, which is what the
// benchmark programs do).
func (in *Interp) setupArray() {
	arrayCtor := in.native("Array", func(in *Interp, this Value, args []Value) (Value, error) {
		in.chargeAlloc()
		if isCtorSentinel(this) && len(args) == 1 && args[0].IsNumber() {
			n := args[0].Num()
			size := int(n)
			if size < 0 || float64(size) != n {
				return Undefined, in.Throw("RangeError", "invalid array length")
			}
			// Pre-check: `new Array(1e9)` is a one-call multi-gigabyte
			// allocation; refuse before make, not after. NewArray itself
			// charges the accepted storage.
			if err := in.checkMem(memObjectBytes + size*memValueBytes); err != nil {
				return Undefined, err
			}
			return ObjectValue(in.NewArray(make([]Value, size))), nil
		}
		return ObjectValue(in.NewArray(append([]Value(nil), args...))), nil
	})
	arrayCtor.SetHidden("prototype", ObjectValue(in.arrayProto))
	arrayCtor.SetHidden("isArray", in.nativeV("isArray", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return False, nil
		}
		o := args[0].Obj()
		return BoolValue(o != nil && o.Class == ClassArray), nil
	}))
	in.Global.Define("Array", ObjectValue(arrayCtor))

	ap := in.arrayProto
	ap.ReserveProps(17) // the methods below
	method := func(name string, fn NativeFunc) { ap.SetHidden(name, in.nativeV(name, fn)) }

	selfArray := func(in *Interp, this Value) (*Object, error) {
		o := this.Obj()
		if o == nil || (o.Class != ClassArray && o.Class != ClassArguments) {
			return nil, in.Throw("TypeError", "receiver is not an array")
		}
		return o, nil
	}

	method("push", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		in.chargeMem(memValueBytes * len(args))
		a.Elems = append(a.Elems, args...)
		return NumberValue(float64(len(a.Elems))), nil
	})
	method("pop", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(a.Elems) == 0 {
			return Undefined, nil
		}
		return popElem(a), nil
	})
	method("shift", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(a.Elems) == 0 {
			return Undefined, nil
		}
		v := a.Elems[0]
		a.Elems = append([]Value(nil), a.Elems[1:]...)
		return v, nil
	})
	method("unshift", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		in.chargeMem(memValueBytes * len(args))
		a.Elems = append(append([]Value(nil), args...), a.Elems...)
		return NumberValue(float64(len(a.Elems))), nil
	})
	method("slice", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		start, end, err := in.sliceBounds(args, len(a.Elems))
		if err != nil {
			return Undefined, err
		}
		return ObjectValue(in.NewArray(append([]Value(nil), a.Elems[start:end]...))), nil
	})
	method("splice", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		n := len(a.Elems)
		start := 0
		if len(args) > 0 {
			s, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			start = clampIndex(int(s), n)
		}
		count := n - start
		if len(args) > 1 {
			c, err := in.ToNumber(args[1])
			if err != nil {
				return Undefined, err
			}
			count = int(c)
			if count < 0 {
				count = 0
			}
			if count > n-start {
				count = n - start
			}
		}
		removed := append([]Value(nil), a.Elems[start:start+count]...)
		var inserted []Value
		if len(args) > 2 {
			inserted = args[2:]
		}
		if grow := len(inserted) - count; grow > 0 {
			in.chargeMem(memValueBytes * grow)
		}
		rest := append([]Value(nil), a.Elems[start+count:]...)
		a.Elems = append(append(a.Elems[:start], inserted...), rest...)
		if m := len(a.Elems); m < n {
			clear(a.Elems[m:n]) // a shrink keeps the backing array
		}
		return ObjectValue(in.NewArray(removed)), nil
	})
	method("concat", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		out := append([]Value(nil), a.Elems...)
		for _, arg := range args {
			if o := arg.Obj(); o != nil && o.Class == ClassArray {
				out = append(out, o.Elems...)
			} else {
				out = append(out, arg)
			}
		}
		return ObjectValue(in.NewArray(out)), nil
	})
	method("join", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		sep := ","
		if len(args) > 0 && !args[0].IsUndefined() {
			s, err := in.ToStringValue(args[0])
			if err != nil {
				return Undefined, err
			}
			sep = s
		}
		parts := make([]string, len(a.Elems))
		total := 0
		for i, el := range a.Elems {
			s := ""
			if !el.IsNullish() {
				v, err := in.ToStringValue(el)
				if err != nil {
					return Undefined, err
				}
				s = v
			}
			parts[i] = s
			// Separator bytes count even for nullish elements — an array of
			// holes joined on a long separator grows just as fast.
			total += len(s) + len(sep)
			if total > MaxStringLen {
				return Undefined, in.Throw("RangeError", "Invalid string length")
			}
		}
		if err := in.checkMem(total); err != nil {
			return Undefined, err
		}
		in.chargeMem(total)
		return StringValue(strings.Join(parts, sep)), nil
	})
	method("indexOf", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return NumberValue(-1), nil
		}
		for i, el := range a.Elems {
			if StrictEquals(el, args[0]) {
				return NumberValue(float64(i)), nil
			}
		}
		return NumberValue(-1), nil
	})
	method("lastIndexOf", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return NumberValue(-1), nil
		}
		for i := len(a.Elems) - 1; i >= 0; i-- {
			if StrictEquals(a.Elems[i], args[0]) {
				return NumberValue(float64(i)), nil
			}
		}
		return NumberValue(-1), nil
	})
	method("reverse", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
			a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
		}
		return this, nil
	})
	method("sort", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		var cmp Value
		if len(args) > 0 && args[0].Obj().IsCallable() {
			cmp = args[0]
		}
		var sortErr error
		sort.SliceStable(a.Elems, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			if cmp.IsObject() {
				r, err := in.callBack(cmp, Undefined, []Value{a.Elems[i], a.Elems[j]})
				if err != nil {
					sortErr = err
					return false
				}
				f, err := in.ToNumber(r)
				if err != nil {
					sortErr = err
					return false
				}
				return f < 0
			}
			si, err := in.ToStringValue(a.Elems[i])
			if err != nil {
				sortErr = err
				return false
			}
			sj, err := in.ToStringValue(a.Elems[j])
			if err != nil {
				sortErr = err
				return false
			}
			return si < sj
		})
		if sortErr != nil {
			return Undefined, sortErr
		}
		return this, nil
	})
	method("forEach", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return Undefined, in.Throw("TypeError", "forEach requires a callback")
		}
		for i, el := range a.Elems {
			if _, err := in.callBack(args[0], Undefined, []Value{el, NumberValue(float64(i)), this}); err != nil {
				return Undefined, err
			}
		}
		return Undefined, nil
	})
	method("map", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return Undefined, in.Throw("TypeError", "map requires a callback")
		}
		out := make([]Value, len(a.Elems))
		for i, el := range a.Elems {
			v, err := in.callBack(args[0], Undefined, []Value{el, NumberValue(float64(i)), this})
			if err != nil {
				return Undefined, err
			}
			out[i] = v
		}
		return ObjectValue(in.NewArray(out)), nil
	})
	method("filter", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return Undefined, in.Throw("TypeError", "filter requires a callback")
		}
		var out []Value
		for i, el := range a.Elems {
			v, err := in.callBack(args[0], Undefined, []Value{el, NumberValue(float64(i)), this})
			if err != nil {
				return Undefined, err
			}
			if ToBoolean(v) {
				out = append(out, el)
			}
		}
		return ObjectValue(in.NewArray(out)), nil
	})
	method("reduce", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return Undefined, in.Throw("TypeError", "reduce requires a callback")
		}
		i := 0
		var acc Value
		if len(args) > 1 {
			acc = args[1]
		} else {
			if len(a.Elems) == 0 {
				return Undefined, in.Throw("TypeError", "reduce of empty array with no initial value")
			}
			acc = a.Elems[0]
			i = 1
		}
		for ; i < len(a.Elems); i++ {
			v, err := in.callBack(args[0], Undefined, []Value{acc, a.Elems[i], NumberValue(float64(i)), this})
			if err != nil {
				return Undefined, err
			}
			acc = v
		}
		return acc, nil
	})
	method("toString", func(in *Interp, this Value, args []Value) (Value, error) {
		a, err := selfArray(in, this)
		if err != nil {
			return Undefined, err
		}
		parts := make([]string, len(a.Elems))
		total := 0
		for i, el := range a.Elems {
			s := ""
			if !el.IsNullish() {
				v, err := in.ToStringValue(el)
				if err != nil {
					return Undefined, err
				}
				s = v
			}
			parts[i] = s
			total += len(s) + 1
			if total > MaxStringLen {
				return Undefined, in.Throw("RangeError", "Invalid string length")
			}
		}
		if err := in.checkMem(total); err != nil {
			return Undefined, err
		}
		in.chargeMem(total)
		return StringValue(strings.Join(parts, ",")), nil
	})
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func (in *Interp) sliceBounds(args []Value, n int) (int, int, error) {
	start, end := 0, n
	if len(args) > 0 && !args[0].IsUndefined() {
		s, err := in.ToNumber(args[0])
		if err != nil {
			return 0, 0, err
		}
		start = clampIndex(int(s), n)
	}
	if len(args) > 1 && !args[1].IsUndefined() {
		e, err := in.ToNumber(args[1])
		if err != nil {
			return 0, 0, err
		}
		end = clampIndex(int(e), n)
	}
	if end < start {
		end = start
	}
	return start, end, nil
}
