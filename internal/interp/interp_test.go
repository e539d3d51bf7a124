package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// run executes src and returns console output.
func run(t *testing.T, src string) string {
	t.Helper()
	out, err := tryRun(src)
	if err != nil {
		t.Fatalf("run(%q): %v", src, err)
	}
	return out
}

func tryRun(src string) (string, error) {
	prog, err := parseResolved(src)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	in := New(Options{Out: &buf, Clock: eventloop.NewVirtualClock(), Seed: 1})
	if err := in.RunProgram(prog); err != nil {
		return buf.String(), err
	}
	return buf.String(), nil
}

// expect asserts that the program prints exactly the given lines.
func expect(t *testing.T, src string, lines ...string) {
	t.Helper()
	got := run(t, src)
	want := strings.Join(lines, "\n")
	if len(lines) > 0 {
		want += "\n"
	}
	if got != want {
		t.Errorf("program %q\n got: %q\nwant: %q", src, got, want)
	}
}

func TestArithmetic(t *testing.T) {
	expect(t, "console.log(1 + 2 * 3);", "7")
	expect(t, "console.log(10 / 4);", "2.5")
	expect(t, "console.log(7 % 3);", "1")
	expect(t, "console.log(-7 % 3);", "-1")
	expect(t, "console.log(2 ** 10);", "1024")
	expect(t, "console.log(0.1 + 0.2 === 0.3);", "false")
	expect(t, "console.log(1 / 0);", "Infinity")
	expect(t, "console.log(-1 / 0);", "-Infinity")
	expect(t, "console.log(0 / 0);", "NaN")
}

func TestStringConcatAndCoercion(t *testing.T) {
	expect(t, `console.log("a" + "b");`, "ab")
	expect(t, `console.log("x" + 1);`, "x1")
	expect(t, `console.log(1 + "2");`, "12")
	expect(t, `console.log("3" * "4");`, "12")
	expect(t, `console.log("3" - 1);`, "2")
	expect(t, `console.log("a" - 1);`, "NaN")
	expect(t, `console.log(true + 1);`, "2")
	expect(t, `console.log(null + 1);`, "1")
	expect(t, `console.log(undefined + 1);`, "NaN")
}

func TestComparisons(t *testing.T) {
	expect(t, "console.log(1 < 2, 2 <= 2, 3 > 4, 4 >= 4);", "true true false true")
	expect(t, `console.log("a" < "b", "b" < "a");`, "true false")
	expect(t, "console.log(NaN < 1, NaN >= 1);", "false false")
	expect(t, "console.log(1 == '1', 1 === '1');", "true false")
	expect(t, "console.log(null == undefined, null === undefined);", "true false")
	expect(t, "console.log(NaN == NaN);", "false")
	expect(t, "console.log(null == 0);", "false")
}

func TestBitwise(t *testing.T) {
	expect(t, "console.log(5 & 3, 5 | 3, 5 ^ 3);", "1 7 6")
	expect(t, "console.log(1 << 4, 256 >> 2, -1 >>> 28);", "16 64 15")
	expect(t, "console.log(~5);", "-6")
	expect(t, "console.log(2147483648 | 0);", "-2147483648")
	expect(t, "console.log(4294967296 | 0);", "0")
	expect(t, "console.log(3.7 | 0, -3.7 | 0);", "3 -3")
}

func TestVariablesAndScope(t *testing.T) {
	expect(t, "var x = 1; x = x + 1; console.log(x);", "2")
	expect(t, `
function f() { var x = 10; function g() { return x + 1; } return g(); }
console.log(f());`, "11")
	expect(t, `
var x = "global";
function f() { var x = "local"; return x; }
console.log(f(), x);`, "local global")
	// Hoisting: use before declaration yields undefined.
	expect(t, "console.log(typeof y); var y = 3;", "undefined")
	// Function hoisting: callable before declaration.
	expect(t, "console.log(f()); function f() { return 42; }", "42")
}

func TestClosures(t *testing.T) {
	expect(t, `
function counter() { var n = 0; return function () { n = n + 1; return n; }; }
var c = counter();
c(); c();
console.log(c());`, "3")
	expect(t, `
var fs = [];
for (var i = 0; i < 3; i++) { (function (j) { fs.push(function () { return j; }); })(i); }
console.log(fs[0](), fs[1](), fs[2]());`, "0 1 2")
	// var is function-scoped: all closures see the final value.
	expect(t, `
var fs = [];
for (var i = 0; i < 3; i++) { fs.push(function () { return i; }); }
console.log(fs[0](), fs[1](), fs[2]());`, "3 3 3")
}

func TestRecursion(t *testing.T) {
	expect(t, `
function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
console.log(fib(15));`, "610")
	expect(t, `
function fact(n) { if (n <= 1) return 1; return n * fact(n - 1); }
console.log(fact(10));`, "3628800")
}

func TestNamedFunctionExpression(t *testing.T) {
	expect(t, `
var f = function rec(n) { return n <= 0 ? 0 : n + rec(n - 1); };
console.log(f(4));`, "10")
}

func TestObjectsAndPrototypes(t *testing.T) {
	expect(t, `
var o = { a: 1, b: { c: 2 } };
console.log(o.a, o.b.c, o["a"]);`, "1 2 1")
	expect(t, `
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm2 = function () { return this.x * this.x + this.y * this.y; };
var p = new Point(3, 4);
console.log(p.norm2(), p instanceof Point);`, "25 true")
	expect(t, `
function A() {}
function B() {}
B.prototype = Object.create(A.prototype);
var b = new B();
console.log(b instanceof B, b instanceof A, b instanceof Object);`, "true true true")
	expect(t, `
var base = { greet: function () { return "hi " + this.name; } };
var derived = Object.create(base);
derived.name = "bob";
console.log(derived.greet());`, "hi bob")
}

func TestConstructorReturnValues(t *testing.T) {
	// A constructor returning an object overrides `this`.
	expect(t, `
function F() { this.a = 1; return { a: 2 }; }
console.log(new F().a);`, "2")
	// Returning a primitive keeps `this`.
	expect(t, `
function G() { this.a = 3; return 7; }
console.log(new G().a);`, "3")
}

func TestNewTarget(t *testing.T) {
	expect(t, `
function F() { return new.target !== undefined; }
console.log(F(), new F() instanceof F);`, "false true")
}

func TestGettersSetters(t *testing.T) {
	expect(t, `
var o = { _x: 1, get x() { return this._x * 2; }, set x(v) { this._x = v + 10; } };
console.log(o.x);
o.x = 5;
console.log(o.x, o._x);`, "2", "30 15")
	expect(t, `
var o = {};
Object.defineProperty(o, "y", { get: function () { return 99; } });
console.log(o.y);`, "99")
	// Setter inherited through the prototype chain is invoked.
	expect(t, `
var proto = { set p(v) { this.stored = v * 2; } };
var o = Object.create(proto);
o.p = 21;
console.log(o.stored);`, "42")
}

func TestArguments(t *testing.T) {
	expect(t, `
function f() { return arguments.length; }
console.log(f(), f(1), f(1, 2, 3));`, "0 1 3")
	expect(t, `
function sum() {
  var t = 0;
  for (var i = 0; i < arguments.length; i++) t += arguments[i];
  return t;
}
console.log(sum(1, 2, 3, 4));`, "10")
	expect(t, `
function f(a, b) { return b; }
console.log(f(1));`, "undefined")
}

func TestApplyCallBind(t *testing.T) {
	expect(t, `
function f(a, b) { return this.base + a + b; }
console.log(f.call({ base: 10 }, 1, 2));
console.log(f.apply({ base: 20 }, [3, 4]));
var g = f.bind({ base: 30 }, 5);
console.log(g(6));`, "13", "27", "41")
}

func TestArrays(t *testing.T) {
	expect(t, `
var a = [1, 2, 3];
a.push(4);
console.log(a.length, a[3], a.pop(), a.length);`, "4 4 4 3")
	expect(t, `
var a = [];
a[4] = 9;
console.log(a.length, a[0], a[4]);`, "5 undefined 9")
	expect(t, `
var a = [3, 1, 2];
a.sort(function (x, y) { return x - y; });
console.log(a.join("-"));`, "1-2-3")
	expect(t, `
var a = [1, 2, 3, 4, 5];
console.log(a.slice(1, 3).join(","), a.indexOf(4), a.concat([6]).length);`, "2,3 3 6")
	expect(t, `
var a = new Array(3);
console.log(a.length, Array.isArray(a), Array.isArray({}));`, "3 true false")
	expect(t, `
var a = [1, 2, 3];
a.length = 1;
console.log(a.join(","));`, "1")
	expect(t, `
console.log([1, [2, 3]].toString());`, "1,2,3")
	expect(t, `
var a = [1, 2, 3, 4];
var r = a.splice(1, 2, 9);
console.log(a.join(","), r.join(","));`, "1,9,4 2,3")
}

func TestArrayHigherOrder(t *testing.T) {
	expect(t, `
var a = [1, 2, 3];
console.log(a.map(function (x) { return x * 2; }).join(","));
console.log(a.filter(function (x) { return x !== 2; }).join(","));
console.log(a.reduce(function (s, x) { return s + x; }, 0));`, "2,4,6", "1,3", "6")
}

func TestStrings(t *testing.T) {
	expect(t, `
var s = "hello world";
console.log(s.length, s.charAt(1), s.charCodeAt(0), s.indexOf("world"));`, "11 e 104 6")
	expect(t, `
console.log("a,b,c".split(",").length, "AbC".toUpperCase(), "AbC".toLowerCase());`, "3 ABC abc")
	expect(t, `
console.log("hello".substring(1, 3), "hello".slice(-3), "  x  ".trim());`, "el llo x")
	expect(t, `
console.log(String.fromCharCode(72, 105), "ab".repeat(3));`, "Hi ababab")
	expect(t, `
console.log("s"[0], "str".length);`, "s 3")
	expect(t, `
console.log("a-b-a".replace("a", "X"));`, "X-b-a")
}

func TestControlFlow(t *testing.T) {
	expect(t, `
var s = 0;
for (var i = 0; i < 10; i++) { if (i % 2 === 0) continue; s += i; }
console.log(s);`, "25")
	expect(t, `
var i = 0;
while (true) { i++; if (i >= 5) break; }
console.log(i);`, "5")
	expect(t, `
var n = 0;
do { n++; } while (n < 3);
console.log(n);`, "3")
	expect(t, `
outer:
for (var i = 0; i < 3; i++) {
  for (var j = 0; j < 3; j++) {
    if (j === 1) continue outer;
    if (i === 2) break outer;
    console.log(i, j);
  }
}`, "0 0", "1 0")
}

func TestSwitch(t *testing.T) {
	expect(t, `
function f(x) {
  switch (x) {
    case 1: return "one";
    case 2: case 3: return "few";
    default: return "many";
  }
}
console.log(f(1), f(2), f(3), f(9));`, "one few few many")
	// Fallthrough without break.
	expect(t, `
var log = [];
switch (2) {
  case 1: log.push("a");
  case 2: log.push("b");
  case 3: log.push("c"); break;
  case 4: log.push("d");
}
console.log(log.join(""));`, "bc")
	// Default in the middle still runs on no match.
	expect(t, `
var log = [];
switch (42) {
  case 1: log.push("a"); break;
  default: log.push("dflt");
  case 2: log.push("b");
}
console.log(log.join(","));`, "dflt,b")
}

func TestForIn(t *testing.T) {
	expect(t, `
var o = { a: 1, b: 2, c: 3 };
var ks = [];
for (var k in o) ks.push(k);
console.log(ks.join(","));`, "a,b,c")
	expect(t, `
var a = [10, 20];
var ks = [];
for (var k in a) ks.push(k);
console.log(ks.join(","));`, "0,1")
}

func TestExceptions(t *testing.T) {
	expect(t, `
try { throw new Error("boom"); } catch (e) { console.log(e.message); }`, "boom")
	expect(t, `
try { null.x; } catch (e) { console.log(e.name); }`, "TypeError")
	expect(t, `
try { undefinedVariable; } catch (e) { console.log(e.name); }`, "ReferenceError")
	expect(t, `
function f() { throw "str"; }
try { f(); } catch (e) { console.log(typeof e, e); }`, "string str")
	expect(t, `
var log = [];
try { log.push("t"); throw 1; } catch (e) { log.push("c"); } finally { log.push("f"); }
console.log(log.join(""));`, "tcf")
	expect(t, `
function f() {
  try { return "try"; } finally { console.log("finally runs"); }
}
console.log(f());`, "finally runs", "try")
	// Exception propagates through nested frames.
	expect(t, `
function a() { b(); } function b() { c(); } function c() { throw new Error("deep"); }
try { a(); } catch (e) { console.log(e.message); }`, "deep")
	// finally overrides with its own completion.
	expect(t, `
function f() { try { throw 1; } finally { return "override"; } }
console.log(f());`, "override")
}

func TestUncaughtError(t *testing.T) {
	_, err := tryRun("throw new TypeError('top');")
	thrown, ok := err.(*Thrown)
	if !ok {
		t.Fatalf("want *Thrown, got %v", err)
	}
	if got := thrown.Error(); !strings.Contains(got, "top") {
		t.Errorf("thrown message: %q", got)
	}
}

func TestImplicitValueOfToString(t *testing.T) {
	expect(t, `
var o = { valueOf: function () { return 41; } };
console.log(o + 1, o * 2, o < 100);`, "42 82 true")
	expect(t, `
var o = { toString: function () { return "obj"; } };
console.log("<" + o + ">");`, "<obj>")
	expect(t, `
var o = { valueOf: function () { return 2; }, toString: function () { return "t"; } };
console.log(o + "");`, "2")
}

func TestTypeof(t *testing.T) {
	expect(t, `console.log(typeof undefined, typeof null, typeof 1, typeof "s", typeof true, typeof {}, typeof function(){});`,
		"undefined object number string boolean object function")
	expect(t, "console.log(typeof notDefinedAnywhere);", "undefined")
}

func TestDeleteAndIn(t *testing.T) {
	expect(t, `
var o = { a: 1, b: 2 };
delete o.a;
console.log("a" in o, "b" in o);`, "false true")
	expect(t, `
var a = [1];
console.log(0 in a, 1 in a, "length" in a);`, "true false true")
}

func TestUpdateExpressions(t *testing.T) {
	expect(t, `
var x = 5;
console.log(x++, x, ++x, x);`, "5 6 7 7")
	expect(t, `
var o = { n: 1 };
o.n++; ++o.n;
console.log(o.n);`, "3")
	expect(t, `
var a = [1];
a[0]--;
console.log(a[0]);`, "0")
	expect(t, `
var s = "4";
s++;
console.log(s, typeof s);`, "5 number")
}

func TestTernaryAndLogical(t *testing.T) {
	expect(t, `console.log(1 ? "y" : "n", 0 ? "y" : "n");`, "y n")
	expect(t, `console.log(null || "fallback", 0 && f());`, "fallback 0")
	expect(t, `console.log("" || 0 || "third");`, "third")
	// Short-circuit does not evaluate the right side.
	expect(t, `
var called = false;
function f() { called = true; return 1; }
var r = false && f();
console.log(called);`, "false")
}

func TestArrowFunctions(t *testing.T) {
	expect(t, `
var add = (a, b) => a + b;
console.log(add(2, 3));`, "5")
	// Arrows capture lexical this.
	expect(t, `
function Box(v) {
  this.v = v;
  var self = (k) => this.v + k;
  this.get = self;
}
var b = new Box(10);
console.log(b.get(5));`, "15")
	// Arrows see the enclosing function's arguments object.
	expect(t, `
function f() { var g = () => arguments.length; return g(); }
console.log(f(1, 2, 3));`, "3")
}

func TestStackOverflow(t *testing.T) {
	prog, err := parseResolved("function f() { return f(); } f();")
	if err != nil {
		t.Fatal(err)
	}
	in := New(Options{Engine: &engine.Profile{Name: "tiny", Speed: 1, MaxStack: 50}})
	rerr := in.RunProgram(prog)
	thrown, ok := rerr.(*Thrown)
	if !ok {
		t.Fatalf("want RangeError, got %v", rerr)
	}
	if !strings.Contains(thrown.Error(), "RangeError") {
		t.Errorf("want RangeError, got %v", thrown.Error())
	}
	if in.Depth() != 0 {
		t.Errorf("depth should unwind to 0, got %d", in.Depth())
	}
}

// TestNoProfileChargesNothing: a realm with no engine profile — serving's —
// spends no work units, while one with a browser's profile does, on both
// engines: a function body runs as a chunk under Bytecode, and the
// top-level loop always runs on the walker.
func TestNoProfileChargesNothing(t *testing.T) {
	prog, err := parseResolved(`
function P(x) { this.x = x; }
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    if (i % 2) { s += new P(i).x; } else { s += {y: i}.y; }
    try { if (i === 3) { throw i; } } catch (e) { s++; }
  }
  return s;
}
var t = 0;
for (var j = 0; j < 3; j++) { if (j) { t += f(10); } }
console.log(t);`)
	if err != nil {
		t.Fatal(err)
	}
	for _, bc := range []bool{false, true} {
		for _, eng := range []*engine.Profile{nil, engine.Chrome()} {
			var buf bytes.Buffer
			in := New(Options{Engine: eng, Bytecode: bc, Out: &buf})
			if err := in.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			if buf.String() != "92\n" {
				t.Fatalf("bytecode=%v engine=%v: printed %q, want 92", bc, eng != nil, buf.String())
			}
			if bc && in.ChunkRuns() == 0 {
				t.Fatal("bytecode engine compiled nothing; test is vacuous")
			}
			if charged := in.sink != 0; charged != (eng != nil) {
				t.Errorf("bytecode=%v engine=%v: charged=%v", bc, eng != nil, charged)
			}
		}
	}
}

func TestSetTimeoutOrdering(t *testing.T) {
	clock := eventloop.NewVirtualClock()
	loop := eventloop.New(clock)
	var buf bytes.Buffer
	in := New(Options{Out: &buf, Clock: clock, Loop: loop})
	prog, err := parseResolved(`
setTimeout(function () { console.log("b"); }, 10);
setTimeout(function () { console.log("a"); }, 0);
console.log("sync");`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	want := "sync\na\nb\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
}

func TestMathBuiltins(t *testing.T) {
	expect(t, "console.log(Math.floor(3.7), Math.ceil(3.2), Math.abs(-5), Math.sqrt(16));", "3 4 5 4")
	expect(t, "console.log(Math.max(1, 9, 4), Math.min(2, -3), Math.pow(2, 8));", "9 -3 256")
	expect(t, "console.log(Math.round(2.5), Math.round(-2.5), Math.trunc(-3.9));", "3 -2 -3")
	expect(t, "var r = Math.random(); console.log(r >= 0 && r < 1);", "true")
}

func TestMathRandomSeeded(t *testing.T) {
	out1, err := tryRun("console.log(Math.random(), Math.random());")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := tryRun("console.log(Math.random(), Math.random());")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Errorf("seeded Math.random must be deterministic: %q vs %q", out1, out2)
	}
}

func TestParseIntFloat(t *testing.T) {
	expect(t, `console.log(parseInt("42"), parseInt("0x1f"), parseInt("12px"), parseInt("z"));`, "42 31 12 NaN")
	expect(t, `console.log(parseInt("101", 2), parseInt("-17"));`, "5 -17")
	expect(t, `console.log(parseFloat("3.5abc"), parseFloat("1e2"));`, "3.5 100")
	expect(t, `console.log(isNaN("x"), isNaN("3"), isFinite(1), isFinite(1/0));`, "true false true false")
}

func TestNumberMethods(t *testing.T) {
	expect(t, "console.log((255).toString(16), (255).toString(2));", "ff 11111111")
	expect(t, "console.log((3.14159).toFixed(2));", "3.14")
}

func TestDateNow(t *testing.T) {
	clock := eventloop.NewVirtualClock()
	var buf bytes.Buffer
	in := New(Options{Out: &buf, Clock: clock})
	prog, _ := parseResolved("var t0 = Date.now(); console.log(t0);")
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	clock.Advance(250)
	prog2, _ := parser.Parse("console.log(Date.now());")
	resolve.ProgramFrom(prog2, in.Sites())
	if err := in.RunProgram(prog2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "0\n250\n" {
		t.Errorf("Date.now with virtual clock: %q", buf.String())
	}
}

func TestObjectKeys(t *testing.T) {
	expect(t, `
var o = { b: 1, a: 2 };
console.log(Object.keys(o).join(","));`, "b,a")
}

func TestSequenceAndComma(t *testing.T) {
	expect(t, "var x = (1, 2, 3); console.log(x);", "3")
}

func TestVoidAndUnaryPlus(t *testing.T) {
	expect(t, `console.log(void 0, +"3", -"2", +true);`, "undefined 3 -2 1")
}

func TestStepsCounter(t *testing.T) {
	prog, _ := parseResolved("var s = 0; for (var i = 0; i < 100; i++) { s += i; }")
	in := New(Options{})
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if in.Steps < 100 {
		t.Errorf("Steps = %d, want >= 100", in.Steps)
	}
}

func TestEvalWithoutHookThrows(t *testing.T) {
	_, err := tryRun(`eval("1 + 1");`)
	if err == nil {
		t.Fatal("eval without a hook should throw")
	}
}

func TestEvalWithHook(t *testing.T) {
	prog, _ := parseResolved(`eval("globalFromEval = 7;"); console.log(globalFromEval);`)
	var buf bytes.Buffer
	in := New(Options{Out: &buf})
	in.EvalHook = func(src string) (func() error, error) {
		frag, err := parser.Parse(src)
		if err == nil {
			err = resolve.ProgramFrom(frag, in.Sites())
		}
		return func() error { return in.RunProgram(frag) }, err
	}
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "7\n" {
		t.Errorf("eval output: %q", buf.String())
	}
}

// A tree that skipped internal/resolve has no frame layouts, and there is no
// frame shape to run it on: the first call ends the run with a host error,
// on either engine, and the guest's own handlers do not see it.
func TestUnresolvedFunctionIsHostError(t *testing.T) {
	for _, bc := range []bool{false, true} {
		prog, err := parser.Parse(`
function f() { return 1; }
try { console.log(f()); } finally { console.log("finally"); }`)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		in := New(Options{Out: &buf, Bytecode: bc})
		if err := in.RunProgram(prog); err != errNotResolved || buf.Len() != 0 {
			t.Errorf("bytecode=%v: err %v, output %q; want %v and no output", bc, err, buf.String(), errNotResolved)
		}
		if in.Depth() != 0 {
			t.Errorf("bytecode=%v: depth %d after the refused call", bc, in.Depth())
		}
	}
}
