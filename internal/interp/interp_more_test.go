package interp

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// Additional semantic coverage: error paths, coercion corners, and builtin
// behaviour the first suite does not touch.

func TestTypeErrors(t *testing.T) {
	cases := []struct{ src, name string }{
		{`var x = undefined; x.p;`, "TypeError"},
		{`var x = null; x.p = 1;`, "TypeError"},
		{`var x = 5; x();`, "TypeError"},
		{`new 42();`, "TypeError"},
		{`1 instanceof 2;`, "TypeError"},
		{`"k" in 5;`, "TypeError"},
	}
	for _, c := range cases {
		_, err := tryRun(c.src)
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%q should raise %s, got %v", c.src, c.name, err)
		}
	}
}

func TestWritesToPrimitivesSilentlyDrop(t *testing.T) {
	expect(t, `var s = "abc"; s.x = 1; console.log(s.x);`, "undefined")
	expect(t, `var n = 5; n.y = 2; console.log(n.y);`, "undefined")
}

func TestStringCoercionCorners(t *testing.T) {
	expect(t, `console.log("" + null, "" + undefined, "" + true);`, "null undefined true")
	expect(t, `console.log("" + [1, 2], "" + {});`, "1,2 [object Object]")
	expect(t, `console.log(+"", +" 42 ", +"0x10");`, "0 42 16")
	expect(t, `console.log(+"Infinity", +"-Infinity");`, "Infinity -Infinity")
	expect(t, `console.log(Number(""), Number("3.5"), Number(false));`, "0 3.5 0")
	expect(t, `console.log(String(1.5), String(null), String([3]));`, "1.5 null 3")
}

func TestLooseEqualityMatrix(t *testing.T) {
	expect(t, `console.log(0 == "", 0 == "0", "" == "0");`, "true true false")
	expect(t, `console.log(false == 0, true == 1, true == "1");`, "true true true")
	expect(t, `console.log([1] == 1, [] == 0);`, "true true")
	expect(t, `var o = {}; console.log(o == o, o == {});`, "true false")
}

func TestToPrimitiveOrder(t *testing.T) {
	// Default hint tries valueOf first; string hint tries toString first.
	expect(t, `
var o = {
  valueOf: function () { return 1; },
  toString: function () { return "s"; }
};
console.log(o + 0, "" + o, String(o));`, "1 1 s")
	// An object whose valueOf returns an object falls back to toString.
	expect(t, `
var o = { valueOf: function () { return {}; }, toString: function () { return "t"; } };
console.log(o + "!");`, "t!")
	// Neither returning a primitive is a TypeError.
	_, err := tryRun(`
var o = { valueOf: function () { return {}; }, toString: function () { return {}; } };
o + 1;`)
	if err == nil || !strings.Contains(err.Error(), "TypeError") {
		t.Errorf("unconvertible object should throw, got %v", err)
	}
}

func TestShiftAndCompareCorners(t *testing.T) {
	expect(t, `console.log(1 << 33, 1 << 32);`, "2 1") // shift counts mask to 5 bits
	expect(t, `console.log("10" < "9", 10 < 9);`, "true false")
	expect(t, `console.log("a" < 1);`, "false") // NaN comparison
	expect(t, `console.log(null >= 0, undefined >= 0);`, "true false")
}

func TestErrorObjects(t *testing.T) {
	expect(t, `
var e = new TypeError("msg");
console.log(e.name, e.message, e instanceof TypeError || e instanceof Error, e.toString());`,
		"TypeError msg true TypeError: msg")
	expect(t, `var e = new Error(); console.log(e.toString());`, "Error")
}

func TestFunctionLength(t *testing.T) {
	expect(t, `function f(a, b, c) {} console.log(f.length);`, "3")
}

func TestArraySparseAndNested(t *testing.T) {
	expect(t, `
var a = [];
a[2] = "z";
var ks = [];
for (var k in a) { ks.push(k); }
console.log(ks.join("|"), a.length);`, "0|1|2 3")
	expect(t, `
var grid = [[1, 2], [3, 4]];
grid[1][0] = 9;
console.log(grid[0][1], grid[1][0]);`, "2 9")
}

func TestArrayNonIndexProps(t *testing.T) {
	expect(t, `
var a = [1, 2];
a.tag = "hello";
console.log(a.tag, a.length);`, "hello 2")
}

func TestObjectKeysOrderWithDelete(t *testing.T) {
	expect(t, `
var o = { a: 1, b: 2, c: 3 };
delete o.b;
o.d = 4;
console.log(Object.keys(o).join(""));`, "acd")
}

func TestGetterOnPrototypeChain(t *testing.T) {
	expect(t, `
var proto = { get kind() { return "proto-" + this.tag; } };
var o = Object.create(proto);
o.tag = "x";
console.log(o.kind);`, "proto-x")
}

func TestDefinePropertyDescriptor(t *testing.T) {
	expect(t, `
var o = { a: 1 };
var d = Object.getOwnPropertyDescriptor(o, "a");
console.log(d.value, d.enumerable);
console.log(Object.getOwnPropertyDescriptor(o, "missing"));`, "1 true", "undefined")
}

func TestNumberFormatting(t *testing.T) {
	expect(t, `console.log(0.1 + 0.2);`, "0.30000000000000004")
	expect(t, `console.log(1e21, 1e20);`, "1e+21 100000000000000000000")
	expect(t, `console.log(-0 === 0);`, "true")
	expect(t, `console.log(1/3);`, "0.3333333333333333")
}

func TestThrowNonError(t *testing.T) {
	expect(t, `
try { throw 42; } catch (e) { console.log(typeof e, e + 1); }`, "number 43")
	expect(t, `
try { throw [1, 2]; } catch (e) { console.log(e.length); }`, "2")
}

func TestNestedTryRethrow(t *testing.T) {
	expect(t, `
var log = [];
try {
  try {
    throw new Error("inner");
  } catch (e) {
    log.push("caught:" + e.message);
    throw new Error("outer");
  } finally {
    log.push("fin1");
  }
} catch (e2) {
  log.push("caught:" + e2.message);
}
console.log(log.join(" "));`, "caught:inner fin1 caught:outer")
}

func TestBreakInsideTryFinally(t *testing.T) {
	expect(t, `
var log = [];
for (var i = 0; i < 3; i++) {
  try {
    if (i === 1) { break; }
    log.push(i);
  } finally {
    log.push("f" + i);
  }
}
console.log(log.join(","));`, "0,f0,f1")
}

func TestVoidDeleteTypeofChains(t *testing.T) {
	expect(t, `console.log(typeof typeof 1);`, "string")
	expect(t, `var o = { p: 1 }; console.log(delete o.p, delete o.p, o.p);`, "true true undefined")
	expect(t, `console.log(void (1 + 2));`, "undefined")
}

func TestSeededRandomDiffersAcrossSeeds(t *testing.T) {
	prog := "console.log(Math.random());"
	out1, _ := tryRun(prog)
	in2Out := runWithSeed(t, prog, 999)
	if out1 == in2Out {
		t.Error("different seeds should give different Math.random streams")
	}
}

func runWithSeed(t *testing.T, src string, seed uint64) string {
	t.Helper()
	prog, err := parseResolved(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	in := New(Options{Out: writerOf(&sb), Seed: seed})
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestDisplayFormats(t *testing.T) {
	expect(t, `console.log([1, [2, 3], "x"]);`, "1,2,3,x")
	expect(t, `console.log(function named() {});`, "[function named]")
	expect(t, `console.log({});`, "[object Object]")
	expect(t, `console.log(new Error("oops"));`, "Error: oops")
}

func TestStepsAndDepthAccounting(t *testing.T) {
	prog, err := parseResolved(`
function r(n) { if (n === 0) { return 0; } return r(n - 1); }
r(10);`)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Options{})
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if in.Depth() != 0 {
		t.Errorf("depth must return to zero, got %d", in.Depth())
	}
	if in.MaxDepth() <= 0 {
		t.Error("MaxDepth must be positive")
	}
}

func TestAtomicSections(t *testing.T) {
	in := New(Options{})
	if in.InAtomic() {
		t.Error("fresh interp should not be atomic")
	}
	var depths []int
	note := func(in *Interp, this Value, args []Value) (Value, error) {
		depths = append(depths, in.atomic)
		return Undefined, nil
	}
	inner := ObjectValue(in.NewNative("inner", note))
	outer := ObjectValue(in.NewNative("outer", func(in *Interp, this Value, args []Value) (Value, error) {
		note(in, this, args)
		_, err := in.callBack(inner, Undefined, nil)
		note(in, this, args)
		return Undefined, err
	}))
	if _, err := in.callBack(outer, Undefined, nil); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(depths) != "[1 2 1]" {
		t.Errorf("nested atomic sections must count: depths %v, want [1 2 1]", depths)
	}
	if in.InAtomic() {
		t.Error("atomic sections should unwind")
	}
	thrower := ObjectValue(in.NewNative("thrower", func(in *Interp, this Value, args []Value) (Value, error) {
		return Undefined, in.Throw("Error", "boom")
	}))
	if _, err := in.callBack(thrower, Undefined, nil); err == nil {
		t.Error("the callee's throw must reach the caller")
	}
	if in.InAtomic() {
		t.Error("an atomic section should unwind on a throw")
	}
}

// parseResolved is the front end every engine run sits behind: parse, then
// internal/resolve, without which no function can be called.
func parseResolved(src string) (*ast.Program, error) {
	prog, err := parser.Parse(src)
	if err == nil {
		resolve.Program(prog)
	}
	return prog, err
}

func writerOf(sb *strings.Builder) io.Writer { return sb }

// TestInheritedLengthAccessor: an accessor named length on Object.prototype
// does not hide the native length of an array or an arguments object from
// what the getters sub-language's helpers look up: LookupAccessor (the
// $lookupGetter/$lookupSetter natives) finds no accessor there, and getData
// (the engine's answer for $get) reads the length. A plain object still
// inherits the accessor.
func TestInheritedLengthAccessor(t *testing.T) {
	_, in := runEngine(t, `Object.defineProperty(Object.prototype, "length", {get: function () { return 99; }, set: function (v) {}});
var a = [1, 2], args = (function () { return arguments; })(1, 2, 3), o = {};`, false)
	for name, want := range map[string]float64{"a": 2, "args": 3} {
		v := in.Global.Cell(name).v
		for _, setter := range []bool{false, true} {
			if acc := in.LookupAccessor(v, "length", setter); !acc.IsUndefined() {
				t.Errorf("%s: LookupAccessor(length, setter %v) found %v, want the native length", name, setter, acc)
			}
		}
		if got, err, ok := in.getData(v, "length"); err != nil || !ok || got.Num() != want {
			t.Errorf("%s: getData(length) = %v, %v, %v; want %v", name, got, err, ok, want)
		}
	}
	if acc := in.LookupAccessor(in.Global.Cell("o").v, "length", false); acc.IsUndefined() {
		t.Error("a plain object's inherited length accessor was not found")
	}
}
