package interp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/parser"
	"repro/internal/printer"
	"repro/internal/resolve"
)

// Property tests pinning the tagged Value representation (ISSUE 4): every
// primitive class round-trips without losing the observable distinctions
// JavaScript has (-0's sign, NaN's non-reflexivity, 2^53-boundary
// integers, string content and cheap identity), and the typeof /
// strict-equality lattice over the tags matches what the engine itself
// computes for the same literals — the cross-check that would catch a
// divergence between the Go-level representation and the pre-change
// interface{} semantics.

// TestValueLayout pins the struct size the representation was designed
// around: 24 bytes, fully inline payloads. Growing it is not forbidden,
// but must be a deliberate decision — this test is the tripwire.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("Value is %d bytes, want 24 (num 8 + ptr 8 + slen 4 + tag 1 + pad)", got)
	}
	var zero Value
	if !zero.IsUndefined() {
		t.Fatal("the zero Value must be undefined (env slots and cleared arenas rely on it)")
	}
	// Every realm allocates one Interp: at 568 B it fits the 576-byte size
	// class, and a field that crosses it moves every realm into the 640 class.
	if got := unsafe.Sizeof(Interp{}); got > 568 {
		t.Fatalf("Interp is %d bytes, want at most 568 (past 576 it allocates in the 640-byte size class)", got)
	}
}

// TestNumberRoundTrip drives every interesting float64 class through the
// representation and back.
func TestNumberRoundTrip(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1),
		1 << 53, 1<<53 + 2, 1<<53 - 1, -(1 << 53), -(1<<53 - 1),
		float64(1<<53) + 1, // not representable: rounds to 2^53 — must round-trip as what Go stores
		1e21, 1e-21, math.Pi,
	}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		specials = append(specials, math.Float64frombits(rnd.Uint64()))
	}
	for _, f := range specials {
		v := NumberValue(f)
		if !v.IsNumber() || v.Tag() != TagNumber {
			t.Fatalf("NumberValue(%v) tag = %v", f, v.Tag())
		}
		got := v.Num()
		if math.IsNaN(f) {
			if !math.IsNaN(got) {
				t.Fatalf("NaN(%#x) round-tripped to %v", math.Float64bits(f), got)
			}
			// NaN payloads are unobservable in JS; the representation may
			// canonicalize them but must keep NaN-ness and non-reflexivity.
			if StrictEquals(v, v) {
				t.Fatalf("NaN === NaN for bits %#x", math.Float64bits(f))
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("number %v (bits %#x) round-tripped to %v (bits %#x)",
				f, math.Float64bits(f), got, math.Float64bits(got))
		}
		if !StrictEquals(v, NumberValue(f)) {
			t.Fatalf("%v !== itself through the representation", f)
		}
		// The embedding boundary preserves the same bits.
		back := FromGo(v.ToGo())
		if math.Float64bits(back.Num()) != math.Float64bits(f) {
			t.Fatalf("ToGo/FromGo changed %v to %v", f, back.Num())
		}
	}
}

// TestNegativeZeroDistinctions: -0 and +0 are === but sign-observable
// through division, and both stringify to "0" (which is why -0 as a
// property key must read the same slot as 0 — covered end-to-end in the
// differential corpus).
func TestNegativeZeroDistinctions(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nz := NumberValue(negZero)
	pz := NumberValue(0)
	if !StrictEquals(nz, pz) {
		t.Fatal("-0 === 0 must hold")
	}
	if !math.Signbit(nz.Num()) {
		t.Fatal("the representation dropped -0's sign bit")
	}
	if math.Signbit(pz.Num()) {
		t.Fatal("+0 acquired a sign bit")
	}
	if got := printer.FormatNumber(nz.Num()); got != "0" {
		t.Fatalf("String(-0) = %q, want \"0\"", got)
	}
	if q := 1 / nz.Num(); !math.IsInf(q, -1) {
		t.Fatalf("1/-0 = %v through the representation, want -Infinity", q)
	}
}

// TestSafeIntegerBoundary pins 2^53±1 exactness: 2^53-1 and 2^53 are
// distinct, 2^53+1 is not representable and collapses onto 2^53 — the
// same collapse interface boxing had, since both store an IEEE double.
func TestSafeIntegerBoundary(t *testing.T) {
	maxSafe := float64(1<<53 - 1)
	if StrictEquals(NumberValue(maxSafe), NumberValue(maxSafe+1)) {
		t.Fatal("2^53-1 and 2^53 must differ")
	}
	if !StrictEquals(NumberValue(maxSafe+1), NumberValue(maxSafe+2)) {
		t.Fatal("2^53 and 2^53+1 must collapse (IEEE 754), as before the change")
	}
	if s := printer.FormatNumber(maxSafe); s != "9007199254740991" {
		t.Fatalf("String(2^53-1) = %q", s)
	}
}

// TestStringRoundTripAndIdentity: strings keep exact content, aliasing the
// original bytes (no copy), with payload equality independent of how the
// equal content was produced.
func TestStringRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	cases := []string{"", "a", "hello", strings.Repeat("x", 4096), "\x00\xff", "héllo wörld", "0", "-0", "NaN"}
	for i := 0; i < 512; i++ {
		n := rnd.Intn(64)
		b := make([]byte, n)
		rnd.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		v := StringValue(s)
		if !v.IsString() {
			t.Fatalf("StringValue(%q) tag = %v", s, v.Tag())
		}
		if got := v.Str(); got != s {
			t.Fatalf("string %q round-tripped to %q", s, got)
		}
		if !StrictEquals(v, StringValue(s)) {
			t.Fatalf("%q !== itself", s)
		}
		// Identity fast path: a Value rebuilt from the same Go string keeps
		// the same data pointer — comparisons of interned names are a
		// pointer check, not a byte scan.
		if len(s) > 0 {
			w := StringValue(s)
			if v.ptr != w.ptr {
				t.Fatalf("same Go string produced different payload pointers for %q", s)
			}
		}
		// Content equality must hold across distinct backing arrays too.
		copied := StringValue(string(append([]byte(nil), s...)))
		if !StrictEquals(v, copied) {
			t.Fatalf("equal content in different backing arrays compared unequal: %q", s)
		}
		if got := FromGo(v.ToGo()); !StrictEquals(v, got) {
			t.Fatalf("ToGo/FromGo changed %q", s)
		}
	}
}

// TestStringAliasesBacking verifies the no-copy claim: the Value's payload
// pointer is the original string's data pointer, and substrings of a large
// string stay views.
func TestStringAliasesBacking(t *testing.T) {
	s := strings.Repeat("abc", 100)
	v := StringValue(s)
	if v.ptr != unsafe.Pointer(unsafe.StringData(s)) {
		t.Fatal("StringValue copied the string payload")
	}
	sub := s[3:9]
	w := StringValue(sub)
	if w.ptr != unsafe.Pointer(unsafe.StringData(sub)) || w.Str() != "abcabc" {
		t.Fatal("substring Value does not alias the parent backing array")
	}
}

// TestBoolNullUndefined pins the small classes and the zero-value rule.
func TestBoolNullUndefined(t *testing.T) {
	if !True.IsBool() || !True.Bool() || !False.IsBool() || False.Bool() {
		t.Fatal("True/False payloads wrong")
	}
	if !StrictEquals(True, BoolValue(true)) || !StrictEquals(False, BoolValue(false)) {
		t.Fatal("BoolValue does not intern to True/False equivalents")
	}
	if StrictEquals(True, False) {
		t.Fatal("true === false")
	}
	if !Null.IsNull() || Null.IsUndefined() {
		t.Fatal("Null misclassified")
	}
	if !Undefined.IsUndefined() || Undefined.IsNull() {
		t.Fatal("Undefined misclassified")
	}
	if StrictEquals(Null, Undefined) {
		t.Fatal("null === undefined must be false (loose == handles nullish)")
	}
	if !Null.IsNullish() || !Undefined.IsNullish() || NumberValue(0).IsNullish() {
		t.Fatal("IsNullish wrong")
	}
}

// reprSamples is one representative per distinguishable value, used for
// the lattice cross-check below. src is the JavaScript literal producing
// the same value inside the engine.
type reprSample struct {
	name string
	src  string
	v    Value
}

func reprLattice(in *Interp) []reprSample {
	obj := in.NewPlainObject()
	return []reprSample{
		{"undefined", "undefined", Undefined},
		{"null", "null", Null},
		{"true", "true", True},
		{"false", "false", False},
		{"zero", "0", NumberValue(0)},
		{"negzero", "-0", NumberValue(math.Copysign(0, -1))},
		{"one", "1", NumberValue(1)},
		{"nan", "NaN", NumberValue(math.NaN())},
		{"inf", "Infinity", NumberValue(math.Inf(1))},
		{"maxsafe", "9007199254740991", NumberValue(1<<53 - 1)},
		{"emptystr", `""`, StringValue("")},
		{"str", `"s"`, StringValue("s")},
		{"strzero", `"0"`, StringValue("0")},
		{"obj", "window_obj", ObjectValue(obj)},
	}
}

// TestTypeofStrictEqualityLattice cross-checks the Go-level TypeOf and
// StrictEquals against the engine evaluating the identical literals — the
// tree-walker's `typeof` and `===` ran on the interface{} representation
// before this change and their observable results are the spec the tagged
// representation must reproduce.
func TestTypeofStrictEqualityLattice(t *testing.T) {
	var buf bytes.Buffer
	in := New(Options{Out: &buf})
	samples := reprLattice(in)
	in.DefineGlobal("window_obj", samples[len(samples)-1].v)

	wantTypeof := map[string]string{
		"undefined": "undefined", "null": "object", "true": "boolean",
		"false": "boolean", "zero": "number", "negzero": "number",
		"one": "number", "nan": "number", "inf": "number",
		"maxsafe": "number", "emptystr": "string", "str": "string",
		"strzero": "string", "obj": "object",
	}

	var src strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&src, "console.log(%q, typeof (%s));\n", s.name, s.src)
	}
	for _, a := range samples {
		for _, b := range samples {
			fmt.Fprintf(&src, "console.log(%q, (%s) === (%s));\n", a.name+"/"+b.name, a.src, b.src)
		}
	}
	prog, err := parser.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}

	engine := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad engine line %q", line)
		}
		engine[k] = v
	}

	for _, s := range samples {
		goTypeof := TypeOf(s.v)
		if goTypeof != wantTypeof[s.name] {
			t.Errorf("TypeOf(%s) = %q, want %q", s.name, goTypeof, wantTypeof[s.name])
		}
		if engine[s.name] != goTypeof {
			t.Errorf("engine typeof(%s) = %q, Go TypeOf = %q — representation diverged from engine",
				s.name, engine[s.name], goTypeof)
		}
	}
	for _, a := range samples {
		for _, b := range samples {
			goEq := StrictEquals(a.v, b.v)
			if got := engine[a.name+"/"+b.name]; got != fmt.Sprint(goEq) {
				t.Errorf("engine (%s === %s) = %s, Go StrictEquals = %v",
					a.name, b.name, got, goEq)
			}
			// Tag discipline: cross-class strict equality is always false.
			if a.v.Tag() != b.v.Tag() && goEq {
				t.Errorf("cross-tag StrictEquals(%s, %s) = true", a.name, b.name)
			}
		}
	}
}

// TestFromGoToGo pins the embedding conversion boundary: the Go types a
// host naturally passes map onto the expected tags and back.
func TestFromGoToGo(t *testing.T) {
	in := newTestInterp()
	o := in.NewPlainObject()
	cases := []struct {
		in   interface{}
		tag  Tag
		back interface{}
	}{
		{nil, TagNull, nil},
		{true, TagBool, true},
		{false, TagBool, false},
		{3.5, TagNumber, 3.5},
		{int(7), TagNumber, 7.0},
		{int64(1 << 40), TagNumber, float64(1 << 40)},
		{uint32(9), TagNumber, 9.0},
		{"hi", TagString, "hi"},
		{o, TagObject, o},
	}
	for _, c := range cases {
		v := FromGo(c.in)
		if v.Tag() != c.tag {
			t.Errorf("FromGo(%v) tag = %v, want %v", c.in, v.Tag(), c.tag)
		}
		if got := v.ToGo(); got != c.back {
			t.Errorf("ToGo(FromGo(%v)) = %v, want %v", c.in, got, c.back)
		}
	}
	if !FromGo(struct{}{}).IsUndefined() {
		t.Error("FromGo of an unsupported type must be undefined")
	}
	if Undefined.ToGo() != nil {
		t.Error("ToGo(undefined) must be nil")
	}
	// A Value passes through unchanged.
	if !StrictEquals(FromGo(StringValue("x")), StringValue("x")) {
		t.Error("FromGo(Value) must be the identity")
	}
}

// TestLooseEqualsLattice pins the == corners around the new representation
// (nullish pairing, bool/number normalization, string/number coercion).
func TestLooseEqualsLattice(t *testing.T) {
	in := newTestInterp()
	eq := func(a, b Value) bool {
		r, err := in.looseEquals(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if !eq(Null, Undefined) || !eq(Undefined, Null) {
		t.Fatal("null == undefined must hold")
	}
	if eq(Null, NumberValue(0)) || eq(Undefined, NumberValue(0)) {
		t.Fatal("nullish == 0 must be false")
	}
	if !eq(NumberValue(1), True) || !eq(NumberValue(0), False) {
		t.Fatal("bool normalization broken")
	}
	if !eq(StringValue("42"), NumberValue(42)) {
		t.Fatal("string/number coercion broken")
	}
	if eq(NumberValue(math.NaN()), NumberValue(math.NaN())) {
		t.Fatal("NaN == NaN must be false")
	}
	if !eq(StringValue(""), NumberValue(0)) {
		t.Fatal(`"" == 0 must hold`)
	}
}

// TestStringLengthCap: growth paths throw a catchable RangeError before a
// string could ever exceed the representation's 32-bit length field — the
// guest must never be able to panic the host through concatenation.
func TestStringLengthCap(t *testing.T) {
	const src = `
var out = [];
try { "abc".repeat(1e18); } catch (e) { out.push(e.name); }
try {
  // One repeat builds a just-over-half-cap string; a single self-concat
  // must then throw instead of wrapping the 32-bit length.
  var s = "x".repeat(536870913); // 2^29 + 1
  s = s + s;
  out.push("no-throw");
} catch (e2) { out.push(e2.name); }
console.log(out.join(","));
`
	for _, bc := range []bool{false, true} {
		var buf bytes.Buffer
		in := New(Options{Out: &buf, Bytecode: bc})
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog)
		if err := in.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != "RangeError,RangeError\n" {
			t.Errorf("bytecode=%v: string cap output %q, want two RangeErrors", bc, got)
		}
	}
}

// TestDisplayAndToString pins the user-visible renderings of each class
// through the tagged representation (console.log and string coercion).
func TestDisplayAndToString(t *testing.T) {
	in := newTestInterp()
	cases := []struct {
		v    Value
		want string
	}{
		{Undefined, "undefined"},
		{Null, "null"},
		{True, "true"},
		{False, "false"},
		{NumberValue(0), "0"},
		{NumberValue(math.Copysign(0, -1)), "0"},
		{NumberValue(math.NaN()), "NaN"},
		{NumberValue(math.Inf(1)), "Infinity"},
		{NumberValue(-1.5), "-1.5"},
		{StringValue("x"), "x"},
	}
	for _, c := range cases {
		if got := in.Display(c.v); got != c.want {
			t.Errorf("Display(%v) = %q, want %q", c.v, got, c.want)
		}
		s, err := in.ToStringValue(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if s != c.want {
			t.Errorf("ToStringValue(%v) = %q, want %q", c.v, s, c.want)
		}
	}
}
