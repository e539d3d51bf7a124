package interp

import (
	"math"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/printer"
)

// setupString installs the String constructor/function and String.prototype.
// Strings are Go strings: WTF-8 bytes, with length and indices counted in
// bytes. Single-character accesses (charAt, computed index, split(""))
// decode the character starting at the given byte offset (see wtf8.go), so
// non-ASCII text round-trips; charCodeAt returns the decoded code point and
// fromCharCode encodes every BMP code unit — surrogates included — so
// fromCharCode(c).charCodeAt(0) === c. ASCII keeps the zero-copy one-byte
// fast path, and offsets that do not start a valid sequence degrade to the
// raw one-byte view, so arbitrary byte strings still split/join-round-trip.
func (in *Interp) setupString() {
	stringCtor := in.native("String", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return StringValue(""), nil
		}
		s, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		return StringValue(s), nil
	})
	stringCtor.SetHidden("prototype", ObjectValue(in.stringProto))
	stringCtor.SetHidden("fromCharCode", in.nativeV("fromCharCode", func(in *Interp, this Value, args []Value) (Value, error) {
		b := make([]byte, 0, len(args)*3)
		for _, a := range args {
			f, err := in.ToNumber(a)
			if err != nil {
				return Undefined, err
			}
			b = appendWTF8(b, uint16(int64(f)))
		}
		return StringValue(string(b)), nil
	}))
	in.Global.Define("String", ObjectValue(stringCtor))

	sp := in.stringProto
	sp.ReserveProps(16) // the methods below
	method := func(name string, fn NativeFunc) { sp.SetHidden(name, in.nativeV(name, fn)) }

	selfString := func(in *Interp, this Value) (string, error) {
		if this.IsString() {
			return this.Str(), nil
		}
		return in.ToStringValue(this)
	}

	method("charAt", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		i := 0
		if len(args) > 0 {
			f, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			i = int(f)
		}
		if i < 0 || i >= len(s) {
			return StringValue(""), nil
		}
		return StringValue(charView(s, i)), nil
	})
	method("charCodeAt", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		i := 0
		if len(args) > 0 {
			f, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			i = int(f)
		}
		if i < 0 || i >= len(s) {
			return NumberValue(math.NaN()), nil
		}
		r, _ := decodeWTF8(s, i)
		return NumberValue(float64(r)), nil
	})
	// codePointAt needs no pair-combining step here: WTF-8 stores
	// supplementary characters as single 4-byte sequences, so the decoded
	// rune at a byte offset already is the full code point.
	method("codePointAt", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		i := 0
		if len(args) > 0 {
			f, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			i = int(f)
		}
		if i < 0 || i >= len(s) {
			return Undefined, nil
		}
		r, _ := decodeWTF8(s, i)
		return NumberValue(float64(r)), nil
	})
	method("at", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		i := 0
		if len(args) > 0 {
			f, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			i = int(f)
		}
		if i < 0 {
			i += len(s)
		}
		if i < 0 || i >= len(s) {
			return Undefined, nil
		}
		return StringValue(charView(s, i)), nil
	})
	method("indexOf", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return NumberValue(-1), nil
		}
		sub, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		from := 0
		if len(args) > 1 {
			f, err := in.ToNumber(args[1])
			if err != nil {
				return Undefined, err
			}
			from = clampIndex(int(f), len(s))
		}
		idx := strings.Index(s[from:], sub)
		if idx < 0 {
			return NumberValue(-1), nil
		}
		return NumberValue(float64(idx + from)), nil
	})
	method("lastIndexOf", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return NumberValue(-1), nil
		}
		sub, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		return NumberValue(float64(strings.LastIndex(s, sub))), nil
	})
	method("substring", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		start, end := 0, len(s)
		if len(args) > 0 {
			f, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			start = int(f)
		}
		if len(args) > 1 && !args[1].IsUndefined() {
			f, err := in.ToNumber(args[1])
			if err != nil {
				return Undefined, err
			}
			end = int(f)
		}
		if start < 0 {
			start = 0
		}
		if end > len(s) {
			end = len(s)
		}
		if end < 0 {
			end = 0
		}
		if start > len(s) {
			start = len(s)
		}
		if start > end {
			start, end = end, start
		}
		return StringValue(s[start:end]), nil
	})
	method("slice", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		start, end, err := in.sliceBounds(args, len(s))
		if err != nil {
			return Undefined, err
		}
		return StringValue(s[start:end]), nil
	})
	method("split", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) == 0 {
			return ObjectValue(in.NewArray([]Value{StringValue(s)})), nil
		}
		sep, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		var parts []string
		if sep == "" {
			for i := 0; i < len(s); {
				c := charView(s, i)
				parts = append(parts, c)
				i += len(c)
			}
		} else {
			parts = strings.Split(s, sep)
		}
		elems := make([]Value, len(parts))
		for i, p := range parts {
			elems[i] = StringValue(p)
		}
		return ObjectValue(in.NewArray(elems)), nil
	})
	method("toUpperCase", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		in.chargeMem(len(s))
		return StringValue(strings.ToUpper(s)), nil
	})
	method("toLowerCase", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		in.chargeMem(len(s))
		return StringValue(strings.ToLower(s)), nil
	})
	method("trim", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		return StringValue(strings.TrimSpace(s)), nil
	})
	method("concat", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		for _, a := range args {
			t, err := in.ToStringValue(a)
			if err != nil {
				return Undefined, err
			}
			if len(s)+len(t) > MaxStringLen {
				return Undefined, in.Throw("RangeError", "Invalid string length")
			}
			s += t
		}
		return StringValue(s), nil
	})
	method("replace", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		if len(args) < 2 {
			return StringValue(s), nil
		}
		old, err := in.ToStringValue(args[0])
		if err != nil {
			return Undefined, err
		}
		nw, err := in.ToStringValue(args[1])
		if err != nil {
			return Undefined, err
		}
		if len(s)+len(nw) > MaxStringLen {
			return Undefined, in.Throw("RangeError", "Invalid string length")
		}
		return StringValue(strings.Replace(s, old, nw, 1)), nil
	})
	method("repeat", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		n := 0.0
		if len(args) > 0 {
			f, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			n = f
		}
		if math.IsNaN(n) {
			n = 0 // ToInteger(NaN) is 0 — repeat 0 times
		}
		n = math.Trunc(n)
		if n < 0 || math.IsInf(n, 1) {
			return Undefined, in.Throw("RangeError", "invalid repeat count")
		}
		if len(s) == 0 || n == 0 {
			return StringValue(""), nil
		}
		if n > float64(MaxStringLen/len(s)) {
			return Undefined, in.Throw("RangeError", "Invalid string length")
		}
		// n is now a nonnegative finite integer within the cap, so the
		// float→int conversion is exact and strings.Repeat cannot panic.
		// Pre-check the meter: 'x'.repeat(1e9) is a one-call gigabyte.
		size := len(s) * int(n)
		if err := in.checkMem(size); err != nil {
			return Undefined, err
		}
		in.chargeMem(size)
		return StringValue(strings.Repeat(s, int(n))), nil
	})
	method("toString", func(in *Interp, this Value, args []Value) (Value, error) {
		s, err := selfString(in, this)
		if err != nil {
			return Undefined, err
		}
		return StringValue(s), nil
	})
}

// setupNumberBoolean installs Number, Boolean, and their prototypes.
func (in *Interp) setupNumberBoolean() {
	numberCtor := in.native("Number", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return NumberValue(0), nil
		}
		f, err := in.ToNumber(args[0])
		if err != nil {
			return Undefined, err
		}
		return NumberValue(f), nil
	})
	numberCtor.SetHidden("prototype", ObjectValue(in.numberProto))
	numberCtor.SetHidden("MAX_SAFE_INTEGER", NumberValue(float64(1<<53-1)))
	numberCtor.SetHidden("MIN_SAFE_INTEGER", NumberValue(-float64(1<<53-1)))
	numberCtor.SetHidden("POSITIVE_INFINITY", NumberValue(math.Inf(1)))
	numberCtor.SetHidden("NEGATIVE_INFINITY", NumberValue(math.Inf(-1)))
	numberCtor.SetHidden("isInteger", in.nativeV("isInteger", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return False, nil
		}
		if !args[0].IsNumber() {
			return False, nil
		}
		f := args[0].Num()
		return BoolValue(f == math.Trunc(f) && !math.IsInf(f, 0)), nil
	}))
	in.Global.Define("Number", ObjectValue(numberCtor))

	np := in.numberProto
	np.SetHidden("toString", in.nativeV("toString", func(in *Interp, this Value, args []Value) (Value, error) {
		var f float64
		if this.IsNumber() {
			f = this.Num()
		} else {
			v, err := in.ToNumber(this)
			if err != nil {
				return Undefined, err
			}
			f = v
		}
		radix := 10
		if len(args) > 0 && !args[0].IsUndefined() {
			r, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			radix = int(r)
		}
		if radix == 10 {
			return StringValue(printer.FormatNumber(f)), nil
		}
		if radix < 2 || radix > 36 {
			return Undefined, in.Throw("RangeError", "toString() radix must be between 2 and 36")
		}
		if f != math.Trunc(f) || math.IsNaN(f) || math.IsInf(f, 0) {
			return StringValue(printer.FormatNumber(f)), nil
		}
		return StringValue(strconv.FormatInt(int64(f), radix)), nil
	}))
	np.SetHidden("toFixed", in.nativeV("toFixed", func(in *Interp, this Value, args []Value) (Value, error) {
		var f float64
		if this.IsNumber() {
			f = this.Num()
		} else {
			v, err := in.ToNumber(this)
			if err != nil {
				return Undefined, err
			}
			f = v
		}
		digits := 0
		if len(args) > 0 {
			d, err := in.ToNumber(args[0])
			if err != nil {
				return Undefined, err
			}
			digits = int(d)
		}
		if digits < 0 || digits > 100 {
			return Undefined, in.Throw("RangeError", "toFixed() digits out of range")
		}
		return StringValue(toFixed(f, digits)), nil
	}))

	booleanCtor := in.native("Boolean", func(in *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return False, nil
		}
		return BoolValue(ToBoolean(args[0])), nil
	})
	booleanCtor.SetHidden("prototype", ObjectValue(in.booleanProto))
	in.Global.Define("Boolean", ObjectValue(booleanCtor))

	bp := in.booleanProto
	bp.SetHidden("toString", in.nativeV("toString", func(in *Interp, this Value, args []Value) (Value, error) {
		if this.IsBool() && this.Bool() {
			return StringValue("true"), nil
		}
		return StringValue("false"), nil
	}))
}

// toFixed is Number.prototype.toFixed (ES5 §15.7.4.5): the integer n nearest
// |x|·10^digits, a tie going to the larger n — not to the even one, as
// strconv rounds — printed with digits decimals and x's sign; ToString(x)
// from 1e21 on. The product is taken exactly, so a tie is a tie of the
// double's own value.
func toFixed(x float64, digits int) string {
	if math.IsNaN(x) || math.Abs(x) >= 1e21 {
		return printer.FormatNumber(x)
	}
	sign := ""
	if x < 0 {
		sign, x = "-", -x
	}
	r := new(big.Rat).SetFloat64(x)
	r.Mul(r, new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(digits)), nil)))
	r.Add(r, big.NewRat(1, 2))
	m := new(big.Int).Quo(r.Num(), r.Denom()).String()
	if digits == 0 {
		return sign + m
	}
	if len(m) <= digits {
		m = strings.Repeat("0", digits+1-len(m)) + m
	}
	return sign + m[:len(m)-digits] + "." + m[len(m)-digits:]
}
