package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/langs"
	"repro/internal/parser"
	"repro/internal/rt"
)

// The differential harness: every program of the repository's corpora runs
// under both execution engines — the tree-walker and the bytecode engine —
// and must produce identical console output, identical errors (including
// none), and the same completion kind. This is the primary safety net for
// the second engine: the bytecode compiler is allowed to lower anything it
// wants, as long as no program can tell.

// diffBudget bounds each run; both engines abort with interp.ErrStepBudget
// at the same statement boundary, so a budgeted divergence is still a real
// divergence.
const diffBudget = 3_000_000

// outcome flattens a run's result into a comparable record.
type outcome struct {
	out   string
	err   string
	panic string
}

func (o outcome) String() string {
	return fmt.Sprintf("out=%q err=%q panic=%q", o.out, o.err, o.panic)
}

// runRawOutcome executes source raw under the given backend, capturing
// panics (uncaught event-loop exceptions crash the page, for both engines
// alike) so they compare as outcomes instead of killing the harness.
func runRawOutcome(src, backend string) outcome {
	return runRawBudget(src, backend, diffBudget)
}

func runRawBudget(src, backend string, budget uint64) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o.panic = fmt.Sprint(r)
		}
	}()
	out, err := core.RunRaw(src, core.RunConfig{
		Backend:  backend,
		Clock:    eventloop.NewVirtualClock(),
		Seed:     1,
		MaxSteps: budget,
	})
	o.out = out
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// runStopifiedOutcome compiles once (compilation is engine-independent) and
// executes under the given backend. It returns the outcome plus the number
// of bytecode chunk invocations, so callers can assert the bytecode engine
// actually ran.
func runStopifiedOutcome(t *testing.T, c *core.Compiled, backend string) (o outcome, chunkRuns uint64) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			o.panic = fmt.Sprint(r)
		}
	}()
	var buf nullableBuf
	run, err := c.NewRun(core.RunConfig{
		Backend:  backend,
		Clock:    eventloop.NewVirtualClock(),
		Out:      &buf,
		Seed:     1,
		MaxSteps: diffBudget,
	})
	if err != nil {
		o.err = err.Error()
		return o, 0
	}
	if rerr := run.RunToCompletion(); rerr != nil {
		o.err = rerr.Error()
	}
	run.Loop.Run() // drain remaining timers, as a page would
	o.out = buf.String()
	return o, run.In.ChunkRuns()
}

type nullableBuf struct{ b []byte }

func (n *nullableBuf) Write(p []byte) (int, error) { n.b = append(n.b, p...); return len(p), nil }
func (n *nullableBuf) String() string              { return string(n.b) }

// diffProgram is one corpus entry.
type diffProgram struct {
	name string
	src  string
	opts core.Opts // for the stopified leg
}

// corpusPrograms assembles the full differential corpus: every language
// benchmark, the Octane/Kraken-like suites, the JavaScript sources embedded
// in the examples/ programs, and hand-written edge cases covering the bug
// classes PRs 1–2 fixed.
func corpusPrograms(t *testing.T) []diffProgram {
	var progs []diffProgram

	for _, p := range langs.All() {
		opts := p.Opts(core.Defaults())
		opts.Timer = "countdown"
		opts.CountdownN = 1000
		for _, b := range p.Benchmarks {
			progs = append(progs, diffProgram{
				name: p.Name + "/" + b.Name, src: b.Source, opts: opts,
			})
		}
	}
	js := langs.JavaScript()
	jsOpts := js.Opts(core.Defaults())
	jsOpts.Timer = "countdown"
	jsOpts.CountdownN = 1000
	for _, b := range append(langs.OctaneLike(), langs.KrakenLike()...) {
		progs = append(progs, diffProgram{name: "js/" + b.Name, src: b.Source, opts: jsOpts})
	}

	for _, ex := range exampleSources(t) {
		progs = append(progs, diffProgram{name: ex.name, src: ex.src, opts: core.Defaults()})
	}

	for i, src := range edgeCasePrograms {
		progs = append(progs, diffProgram{
			name: fmt.Sprintf("edge/%02d", i), src: src, opts: core.Defaults(),
		})
	}
	for i, src := range valueReprEdgePrograms {
		progs = append(progs, diffProgram{
			name: fmt.Sprintf("valedge/%02d", i), src: src, opts: core.Defaults(),
		})
	}
	for i, src := range unicodeEdgePrograms {
		progs = append(progs, diffProgram{
			name: fmt.Sprintf("unicode/%02d", i), src: src, opts: core.Defaults(),
		})
	}
	return progs
}

// exampleSources extracts the JavaScript programs embedded as raw string
// literals in examples/*/main.go — any backquoted literal that parses as a
// nonempty program joins the corpus.
func exampleSources(t *testing.T) []struct{ name, src string } {
	t.Helper()
	var out []struct{ name, src string }
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/ not found: %v", err)
	}
	rawString := regexp.MustCompile("(?s)`[^`]*`")
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range rawString.FindAllString(string(data), -1) {
			src := m[1 : len(m)-1]
			prog, perr := parser.Parse(src)
			if perr != nil || len(prog.Body) == 0 {
				continue
			}
			out = append(out, struct{ name, src string }{
				name: fmt.Sprintf("example/%s/%d", filepath.Base(filepath.Dir(f)), i),
				src:  src,
			})
		}
	}
	if len(out) == 0 {
		t.Fatal("no example sources extracted")
	}
	return out
}

// edgeCasePrograms are the hand-written regression programs: the compiler
// edge cases the bytecode engine must not get wrong, wrapped in functions
// so the bytecode path (which only handles resolved function bodies)
// actually executes them.
var edgeCasePrograms = []string{
	// Elided array holes, length, and join.
	`function f() { var a = [,1,,3,,]; return a.length + ":" + a.join("-"); }
	 console.log(f());`,
	// delete arr[i] with named properties present.
	`function f() { var a = [1,2,3]; a.foo = "x"; delete a[1];
	 return a[1] + "/" + a.length + "/" + a.foo; }
	 console.log(f());`,
	// Accessor vs data shape kinds, including conversion in place.
	`function f() {
	   var o = { get x() { return 1; }, set x(v) { this.y = v; } };
	   var before = o.x; o.x = 42; var o2 = { x: 5 }; o2.x = 6;
	   return before + "," + o.y + "," + o2.x;
	 }
	 console.log(f());`,
	// break/continue through labeled loops, including from a catch.
	`function f() {
	   var log = "";
	   outer: for (var i = 0; i < 4; i++) {
	     inner: for (var j = 0; j < 4; j++) {
	       if (j === 1) { continue inner; }
	       if (j === 2 && i === 1) { continue outer; }
	       try { if (i === 2) { break outer; } } catch (e) {}
	       log += i + "" + j + ";";
	     }
	   }
	   return log;
	 }
	 console.log(f());`,
	// Labeled break out of a switch inside a loop.
	`function f() {
	   var s = "";
	   loop: for (var i = 0; i < 5; i++) {
	     switch (i) {
	       case 1: s += "one"; break;
	       case 2: s += "two"; continue loop;
	       case 3: break loop;
	       default: s += "d" + i;
	     }
	     s += ".";
	   }
	   return s;
	 }
	 console.log(f());`,
	// arguments materialization and mutation.
	`function f(a, b) { arguments[0] = 9; arguments[5] = "x";
	 return a + "," + arguments.length + "," + arguments[5] + "," + arguments[1]; }
	 console.log(f(1, 2, 3));`,
	// try/finally interacting with return and loops.
	`function f() {
	   var s = "";
	   for (var i = 0; i < 3; i++) {
	     try { if (i === 1) { continue; } s += "t" + i; } finally { s += "f" + i; }
	   }
	   try { return s + "|ret"; } finally { s += "never-seen"; }
	 }
	 console.log(f());`,
	// finally overriding a return completion.
	`function f() { try { return "a"; } finally { return "b"; } }
	 console.log(f());`,
	// throw through nested handlers, rethrow, and error identity.
	`function f() {
	   var s = "";
	   try {
	     try { throw new Error("boom"); } catch (e) { s += "c1:" + e.message + ";"; throw e; }
	   } catch (e2) { s += "c2:" + e2.message; }
	   return s;
	 }
	 console.log(f());`,
	// for-in over an object mutated mid-loop (snapshot semantics), plus
	// prototype properties and implicit-global loop variable semantics.
	`function f() {
	   var o = { a: 1, b: 2, c: 3 };
	   var s = "";
	   for (var k in o) { s += k; if (k === "a") { delete o.b; o.d = 4; } }
	   return s;
	 }
	 console.log(f());`,
	// Computed member compound assignment: index stringified exactly once.
	`function f() {
	   var calls = 0;
	   var key = { toString: function () { calls++; return "k"; } };
	   var o = { k: 10 };
	   o[key] += 5;
	   o[key]++;
	   return o.k + "/" + calls;
	 }
	 console.log(f());`,
	// typeof of unresolvable names; void; delete of non-members.
	`function f() { return typeof nothingHere + "," + typeof f + "," +
	 (void "x") + "," + (delete 1); }
	 console.log(f());`,
	// Deep recursion: both engines must throw the same RangeError.
	`function f(n) { return f(n + 1); }
	 try { f(0); } catch (e) { console.log(e.name); }`,
	// Step-budget exhaustion: both engines abort identically.
	`function f() { var i = 0; while (true) { i++; } }
	 f();`,
	// Closures over loop variables and catch parameters.
	`function f() {
	   var fns = [];
	   for (var i = 0; i < 3; i++) { fns.push(function () { return i; }) }
	   var c;
	   try { throw 7; } catch (e) { c = function () { return e; }; }
	   return fns[0]() + "," + fns[2]() + "," + c();
	 }
	 console.log(f());`,
	// Switch fallthrough with default in the middle.
	`function f(x) {
	   var s = "";
	   switch (x) { case 1: s += "1"; default: s += "d"; case 2: s += "2"; }
	   return s;
	 }
	 console.log(f(1), f(2), f(3));`,
	// Getter/setter invocation through member reads in loops (IC reuse).
	`function f() {
	   var hits = 0;
	   var o = { get v() { hits++; return hits; } };
	   var sum = 0;
	   for (var i = 0; i < 5; i++) { sum += o.v; }
	   return sum + "/" + hits;
	 }
	 console.log(f());`,
	// String/number coercion corners fixed in PR 2.
	`function f() { return (1e20 | 0) + "," + (1e20 >>> 0) + "," + String(-0) + "," +
	 ({} + "") + "," + (-0 === 0); }
	 console.log(f());`,
	// Event-loop interleaving with timers.
	`var log = [];
	 function tick(n) { log.push(n); if (n < 3) { setTimeout(function () { tick(n + 1); }, 10); } }
	 setTimeout(function () { log.push("late"); console.log(log.join(",")); }, 100);
	 tick(0);`,
	// eval of function-defining code (dynamic fallback path).
	`function mk(src) { return eval(src); }
	 var g = mk("function g(x) { return x * 2; } g");
	 console.log(typeof g === "function" ? g(21) : "no-eval");`,
	// `new boundFn()` constructs the target: bound args prepended, boundThis
	// ignored, instances land on the target's prototype chain.
	`function Pair(a, b) { this.a = a; this.b = b; }
	 Pair.prototype.sum = function () { return this.a + this.b; };
	 var P1 = Pair.bind({poison: true}, 10);
	 var p = new P1(5);
	 console.log(p.a, p.b, p.sum(), p.poison === undefined, p instanceof Pair, p instanceof P1);`,
	// Timer handles: real distinct IDs, cancellation (double and unknown
	// cancels are no-ops), extra setTimeout args forwarded to the callback.
	`var a = setTimeout(function () { console.log("A"); }, 20);
	 var b = setTimeout(function (x, y) { console.log("B", x, y); }, 10, "p", "q");
	 var c = setTimeout(function () { console.log("C-dead"); }, 5);
	 console.log(typeof a, a !== b, b !== c, a >= 1);
	 clearTimeout(c);
	 clearTimeout(c);
	 clearTimeout(12345);`,
	// Date without new returns a string (spec 21.4.2); a Date instance's
	// time-value is a data slot, stable after the clock advances.
	`var s = Date();
	 var d = new Date();
	 var t0 = d.getTime();
	 setTimeout(function () {
	   console.log(typeof s, s.length > 10, d.getTime() === t0, typeof d.valueOf());
	 }, 25);`,
	// Bound .length: target arity minus bound args, floored at zero,
	// through re-binding chains.
	`function f4(a, b, c, d) { return a; }
	 var b0 = f4.bind(null);
	 var b2 = f4.bind(null, 1, 2);
	 var b9 = b2.bind(null, 3, 4, 5, 6);
	 console.log(f4.length, b0.length, b2.length, b9.length);`,
	// instanceof consults the bound chain's ultimate target prototype.
	`function Animal() {}
	 function Dog() {}
	 Dog.prototype = new Animal();
	 var D = Dog.bind(null);
	 var DD = D.bind(null);
	 var d = new DD();
	 console.log(d instanceof DD, d instanceof D, d instanceof Dog, d instanceof Animal, typeof DD);`,

	// finally, lowered: every way control can leave a try statement routes
	// through its finally block, and the block's own abrupt completion wins.
	// return through one finally and through two nested ones.
	`function one(x) { var s = ""; try { return s + "r" + x; } finally { s += "never"; log.push("f1"); } }
	 function two(x) {
	   try { try { return "r" + x; } finally { log.push("inner"); } log.push("skipped"); }
	   finally { log.push("outer"); }
	 }
	 function bare() { try { return; } finally { log.push("bare"); } }
	 var log = [];
	 console.log(one(1), two(2), bare(), log.join(","));`,
	// Unlabeled break and continue through one finally and through two.
	`function f() {
	   var s = "";
	   for (var i = 0; i < 4; i++) {
	     try { if (i === 1) { continue; } if (i === 3) { break; } s += "t" + i; }
	     finally { s += "f" + i; }
	     s += ";";
	   }
	   var j = 0;
	   while (j < 4) {
	     j++;
	     try { try { if (j === 2) { continue; } if (j === 4) { break; } s += "T" + j; }
	           finally { s += "i" + j; } s += "m"; }
	     finally { s += "o" + j; }
	   }
	   return s;
	 }
	 console.log(f());`,
	// Labeled break and continue crossing finally blocks at two loop levels,
	// and a labeled block left from inside a try.
	`function f() {
	   var s = "";
	   outer: for (var i = 0; i < 3; i++) {
	     try {
	       for (var j = 0; j < 3; j++) {
	         try { if (j === 1 && i === 0) { continue outer; } if (i === 2) { break outer; } s += i + "" + j; }
	         finally { s += "a"; }
	       }
	     } finally { s += "b|"; }
	   }
	   blk: { try { s += "in"; break blk; } finally { s += "F"; } s += "unreached"; }
	   return s;
	 }
	 console.log(f());`,
	// throw leaving through one and two finally blocks, the error's identity
	// kept; a catch beside the finally sees it first.
	`function f() {
	   var s = "", err = new Error("boom");
	   try { try { throw err; } finally { s += "1"; } } catch (e) { s += (e === err) + ";"; }
	   try {
	     try { try { throw err; } finally { s += "2"; } s += "no"; } finally { s += "3"; }
	   } catch (e) { s += (e === err) + ";"; }
	   try { throw err; } catch (e) { s += "c"; } finally { s += "4"; }
	   try { try { throw err; } catch (e) { s += "c"; throw e; } finally { s += "5"; } } catch (e) { s += (e === err); }
	   return s;
	 }
	 console.log(f());`,
	// finally inside a for-in (the iterator is unwound by break, continue
	// and return alike) and inside a catch (the catch frame likewise).
	`function f(o, stop) {
	   var s = "";
	   for (var k in o) {
	     for (var k2 in o) {
	       try { if (k2 === "b") { continue; } if (k === stop) { return s + "!" + k; } if (k2 === "c") { break; } s += k + k2; }
	       finally { s += "."; }
	     }
	   }
	   return s;
	 }
	 function g() {
	   var s = "";
	   for (var i = 0; i < 3; i++) {
	     try { throw i; } catch (e) {
	       var seen = function () { return e; };
	       try { if (e === 1) { continue; } if (e === 2) { break; } s += "c" + e; } finally { s += "f" + seen(); }
	     }
	   }
	   try { throw "x"; } catch (e) { try { return s + e; } finally { s += "lost"; } }
	 }
	 console.log(f({a: 1, b: 2, c: 3, d: 4}, "none"), f({a: 1, b: 2, c: 3}, "c"), g());`,
	// An abrupt finally wins: over a pending return, over a pending throw
	// (by return, by break, by continue, by another throw), and a finally
	// inside a finally.
	`function overRet() { try { return "a"; } finally { throw new Error("fin"); } }
	 function overThrow() { try { throw new Error("lost"); } finally { return "kept"; } }
	 function loops() {
	   var s = "";
	   for (var i = 0; i < 3; i++) { try { throw new Error("l" + i); } finally { s += i; if (i < 2) { continue; } break; } }
	   for (;;) { try { return "not this"; } finally { break; } }
	   try { try { throw new Error("one"); } finally { throw new Error("two"); } } catch (e) { s += e.message; }
	   try { s += "a"; } finally { try { s += "b"; } finally { s += "c"; } s += "d"; }
	   return s;
	 }
	 var r; try { r = overRet(); } catch (e) { r = e.message; }
	 console.log(r, overThrow(), loops());`,
	// A throw from three frames down passes a finally in every frame, and
	// one from 150 frames down 150 of them.
	`var trail = [];
	 function c3(x) { try { if (x) { throw new Error("deep" + x); } return "fine"; } finally { trail.push("c3"); } }
	 function c2(x) { try { return c3(x) + "2"; } finally { trail.push("c2"); } }
	 function c1(x) { try { return c2(x) + "1"; } finally { trail.push("c1"); } }
	 function rec(n) { try { if (n === 0) { throw new RangeError("bottom"); } return rec(n - 1); } finally { depth++; } }
	 var depth = 0, got;
	 try { got = c1(0) + "," + c1(7); } catch (e) { got = e.message; }
	 try { rec(150); } catch (e) { got += "," + e.name + "," + depth; }
	 console.log(got, trail.join(""));`,
	// A step-budget abort inside a try is no completion: no finally block
	// runs on its way out.
	`function f() { try { while (true) { f.n = (f.n | 0) + 1; } } finally { console.log("finally ran"); } }
	 try { f(); } finally { console.log("outer finally ran"); }`,
}

// valueReprEdgePrograms pin the numeric/string boundary behavior of the
// tagged Value representation (ISSUE 4): the distinctions the unboxed
// representation must preserve (-0's sign, NaN's non-reflexivity, 2^53
// integer exactness, string identity through concat chains and coercions)
// exercised end-to-end so both engines — and raw versus stopified runs —
// agree byte-for-byte. They also seed FuzzBytecodeVsTreewalker.
var valueReprEdgePrograms = []string{
	// -0 as an array key must read/write the same slot as 0; its sign
	// stays observable through division and Infinity formatting.
	`function f() {
	   var a = [10, 20, 30];
	   var z = -0;
	   a[z] = 99;
	   return a[0] + "," + a[-0] + "," + (1 / z) + "," + String(z) + "," + (z === 0);
	 }
	 console.log(f());`,
	// -0 and NaN as object keys: both coerce through String(), so -0
	// lands on "0" and NaN on "NaN".
	`function f() {
	   var o = {};
	   o[-0] = "neg";
	   o[0] = "pos";
	   o[NaN] = "nan";
	   o[0 / 0] = "nan2";
	   var ks = [];
	   for (var k in o) { ks.push(k); }
	   return ks.join("|") + ";" + o["0"] + ";" + o["NaN"];
	 }
	 console.log(f());`,
	// NaN in switch dispatch: never matches any case, including NaN
	// itself; strict equality drives case selection.
	`function f(x) {
	   switch (x) {
	     case NaN: return "nan-case";
	     case 0: return "zero";
	     case "NaN": return "string-nan";
	     default: return "default";
	   }
	 }
	 console.log(f(NaN), f(0 / 0), f(-0), f("NaN"), f(0));`,
	// NaN in a Map-like dispatch table: property lookup via coercion DOES
	// unify every NaN (one "NaN" key), unlike ===.
	`function f() {
	   var table = {};
	   table[NaN] = 0;
	   table[0 / 0] = (table[NaN] || 0) + 1;
	   var hits = 0;
	   var probes = [NaN, 0 / 0, Infinity - Infinity];
	   for (var i = 0; i < probes.length; i++) {
	     if (table[probes[i]] === 1) { hits++; }
	   }
	   return hits + "/" + (NaN === NaN) + "/" + (NaN !== NaN);
	 }
	 console.log(f());`,
	// "" + bigFloat: large magnitudes, exponent formatting, and the 2^53
	// boundary where integer exactness ends.
	`function f() {
	   var parts = [];
	   parts.push("" + 1e21);
	   parts.push("" + 1e20);
	   parts.push("" + 123456789012345680000);
	   parts.push("" + 9007199254740991);
	   parts.push("" + (9007199254740991 + 1));
	   parts.push("" + (9007199254740991 + 2));
	   parts.push("" + 5e-7);
	   parts.push("" + 0.000001);
	   parts.push("" + -1.5e300);
	   return parts.join(" ");
	 }
	 console.log(f());`,
	// String concat chains: growth across many appends, identity of the
	// result under ===, and .length bookkeeping along the way.
	`function f() {
	   var s = "";
	   for (var i = 0; i < 50; i++) {
	     s = s + i + "-";
	   }
	   var t = "";
	   for (var j = 0; j < 50; j++) {
	     t += j;
	     t += "-";
	   }
	   return (s === t) + "/" + s.length + "/" + s.charAt(17) + "/" + s.slice(0, 8);
	 }
	 console.log(f());`,
	// Numeric strings versus numbers at boundaries: loose equality,
	// ordering mixing strings and numbers, hex string coercion.
	`function f() {
	   var r = [];
	   r.push("10" == 10, "0x10" == 16, "" == 0, " \t" == 0, "1e3" == 1000);
	   r.push("10" < "9", 10 < 9, "10" < 9, [2] == 2);
	   r.push(+"-0" === 0, 1 / +"-0");
	   return r.join(",");
	 }
	 console.log(f());`,
	// Integer-exactness of the safe range through arithmetic: the tagged
	// representation must keep every 2^53-range integer bit-exact through
	// +, *, and string round-trips.
	`function f() {
	   var max = 9007199254740991;
	   var a = max - 1;
	   var ok = 0;
	   if (a + 1 === max) { ok++; }
	   if (max + 1 === max + 2) { ok++; }
	   if ((max + "") === "9007199254740991") { ok++; }
	   if (parseInt(max + "") === max) { ok++; }
	   var big = 1;
	   for (var i = 0; i < 53; i++) { big = big * 2; }
	   if (big === max + 1) { ok++; }
	   return ok;
	 }
	 console.log(f());`,
	// typeof/=== lattice over every primitive class, as runtime strings.
	`function f() {
	   var vals = [undefined, null, true, 0, -0, NaN, 1.5, "", "0", "x"];
	   var s = "";
	   for (var i = 0; i < vals.length; i++) {
	     s += typeof vals[i] + ":";
	     for (var j = 0; j < vals.length; j++) {
	       s += (vals[i] === vals[j]) ? "1" : "0";
	     }
	     s += ";";
	   }
	   return s;
	 }
	 console.log(f());`,
	// String indexing and char coercion at the byte level, plus number
	// formatting of char codes flowing back into arithmetic.
	`function f() {
	   var s = "The quick brown fox";
	   var acc = 0;
	   var out = "";
	   for (var i = 0; i < s.length; i++) {
	     acc = (acc * 31 + s.charCodeAt(i)) % 1000003;
	     out = s[i] + out;
	   }
	   return acc + "|" + out + "|" + s[100] + "|" + s["3"];
	 }
	 console.log(f());`,
}

// unicodeEdgePrograms pin the WTF-8 single-character semantics (ISSUE 8):
// strings are byte-indexed, but charAt/computed-index/split("") decode the
// character starting at the offset, charCodeAt returns the decoded code
// point, and fromCharCode round-trips every BMP code unit including lone
// surrogates. Joining the corpus gives them all three legs: raw and
// stopified engine-vs-engine equality plus the snapshot round-trip suite.
var unicodeEdgePrograms = []string{
	// Byte length vs decoded single-character reads across 1/2/3/4-byte
	// characters; charCodeAt yields code points, not lead bytes.
	`function f() {
	   var s = "añ€🙂";
	   return s.length + "|" + s[0] + s[1] + s[3] + s[6] + "|" + s.charAt(3) +
	     "|" + s.charCodeAt(1) + "," + s.charCodeAt(3) + "," + s.charCodeAt(6);
	 }
	 console.log(f());`,
	// codePointAt decodes whole code points (4-byte 🙂 included) and at()
	// takes negative byte offsets from the end.
	`function f() {
	   var s = "añ€🙂";
	   return s.codePointAt(0) + "," + s.codePointAt(1) + "," + s.codePointAt(6) +
	     "|" + s.at(0) + s.at(-4) + "|" + s.at(99) + "," + s.codePointAt(99);
	 }
	 console.log(f());`,
	// split("") segments at character boundaries and join round-trips.
	`function f() {
	   var s = "héllo wörld", a = s.split("");
	   var lens = "";
	   for (var i = 0; i < a.length; i++) { lens += a[i].length; }
	   return a.length + "|" + a.join("") + "|" + (a.join("") === s) + "|" + lens;
	 }
	 console.log(f());`,
	// fromCharCode(c).charCodeAt(0) === c for BMP code units, surrogates
	// included; encoded byte lengths follow the 1/2/3-byte UTF-8 bands.
	`function f() {
	   var codes = [65, 0xE9, 0x20AC, 0xD800, 0xDFFF, 0xFFFF, 0x7F, 0x80, 0x7FF, 0x800];
	   var ok = 0, s = "";
	   for (var i = 0; i < codes.length; i++) {
	     var c = String.fromCharCode(codes[i]);
	     if (c.charCodeAt(0) === codes[i]) { ok++; }
	     s += c;
	   }
	   return ok + "|" + s.length;
	 }
	 console.log(f());`,
	// Byte-offset semantics of concat/indexOf/slice on multi-byte text.
	`function f() {
	   var c = "€" + "円";
	   return c.length + "|" + c.indexOf("円") + "|" + c.slice(3) + "|" +
	     c.charAt(0) + "|" + c.split("").length;
	 }
	 console.log(f());`,
	// Mid-sequence offsets degrade to the one-byte view (self-consistent
	// for arbitrary bytes); a character-start offset reads the whole char.
	`function f() {
	   var s = "€";
	   return s[0] + "|" + s[1].length + "," + s[2].length + "|" +
	     s.charCodeAt(1) + "," + s.charCodeAt(2) + "|" + (s[0] === s);
	 }
	 console.log(f());`,
	// \u escapes agree with fromCharCode, including a lone surrogate.
	`function f() {
	   var s = "é€\ud834";
	   return s.length + "|" + s.charCodeAt(0) + "," + s.charCodeAt(2) + "," +
	     s.charCodeAt(5) + "|" + (s === String.fromCharCode(0xE9, 0x20AC, 0xD834));
	 }
	 console.log(f());`,
}

// TestDifferentialRaw runs the whole corpus raw under both engines.
func TestDifferentialRaw(t *testing.T) {
	for _, p := range corpusPrograms(t) {
		p := p
		t.Run("raw/"+p.name, func(t *testing.T) {
			tree := runRawOutcome(p.src, core.BackendTree)
			bc := runRawOutcome(p.src, core.BackendBytecode)
			if tree != bc {
				t.Fatalf("raw divergence:\n  tree:     %v\n  bytecode: %v", tree, bc)
			}
		})
	}
}

// TestDifferentialStopified compiles the corpus with each program's own
// sub-language options and runs the instrumented output under both engines.
func TestDifferentialStopified(t *testing.T) {
	sawBytecode := false
	for _, p := range corpusPrograms(t) {
		p := p
		t.Run("stopified/"+p.name, func(t *testing.T) {
			c, err := core.Compile(p.src, p.opts)
			if err != nil {
				// Programs outside the configured sub-language are fine —
				// the compile error does not depend on the engine.
				t.Skipf("does not compile under these options: %v", err)
			}
			tree, _ := runStopifiedOutcome(t, c, core.BackendTree)
			bc, runs := runStopifiedOutcome(t, c, core.BackendBytecode)
			if tree != bc {
				t.Fatalf("stopified divergence:\n  tree:     %v\n  bytecode: %v", tree, bc)
			}
			if runs > 0 {
				sawBytecode = true
			}
		})
	}
	if !sawBytecode {
		t.Fatal("bytecode engine never executed a chunk across the whole corpus")
	}
}

// TestAbortRunsNoFinally is interp's test of the same name one level up, on
// instrumented code: a guest ended from outside — by its step budget, by its
// memory budget, by a kill — runs none of the finally blocks it was inside,
// on either engine. Before the rule, a killed guest and one whose budget had
// refused an allocation ran them all, and the block that then looped forever
// had swallowed the abort by its first capture — a capture is a return, and
// an abrupt finally wins. (The step budgets here bound that failure.)
func TestAbortRunsNoFinally(t *testing.T) {
	guest := func(body string) string {
		return `var n = 0, keep = [];
function f() {
  try { try { ` + body + ` } finally { console.log("inner finally ran"); } }
  catch (e) { console.log("caught", e); }
  finally { console.log("outer finally ran"); for (;;) {} }
}
f();
console.log("guest went on");`
	}
	for _, tc := range []struct {
		name, body string
		cfg        core.RunConfig
		kill       bool
		want       error
	}{
		{name: "step-budget", body: `for (;;) { n++; }`, cfg: core.RunConfig{MaxSteps: 20_000}, want: interp.ErrStepBudget},
		{name: "mem-limit", body: `for (;;) { keep.push(new Array(1000)); }`, cfg: core.RunConfig{MemBudgetBytes: 1 << 20, MaxSteps: 300_000}, want: interp.ErrMemLimit},
		{name: "kill", body: `for (;;) { n++; }`, cfg: core.RunConfig{QuantumSteps: 5_000, MaxSteps: 1_000_000}, kill: true, want: rt.ErrKilled},
	} {
		c, err := core.Compile(guest(tc.body), core.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
			var out bytes.Buffer
			var run *core.AsyncRun
			cfg := tc.cfg
			cfg.Backend, cfg.Out, cfg.Clock = backend, &out, eventloop.NewVirtualClock()
			if tc.kill {
				cfg.OnQuantum = func() { run.Kill(nil) }
			}
			run, err = c.NewRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.RunToCompletion(); !errors.Is(err, tc.want) || out.String() != "" {
				t.Errorf("%s/%s: err %v, printed %q; want %v and nothing", tc.name, backend, err, out.String(), tc.want)
			}
		}
	}
}

// evalDeclPrograms pin what an eval fragment's top-level declarations do:
// they land in the global scope, functions hoisted, exactly as raw eval —
// which runs the fragment in the global frame — leaves them. The
// expectations are absolute: before the REPL and eval paths shared
// compileFragment, raw printed these lines and stopified printed
// "undefined undefined", so a raw-vs-stopified comparison alone would pass
// again if both sides broke the same way.
var evalDeclPrograms = []struct{ name, src, want string }{
	{"var-and-function",
		`eval("var x = 1; function f(){}"); console.log(typeof x, typeof f)`,
		"number function\n"},
	{"inside-a-function",
		`function g(){ eval("var y = 2"); return typeof y } console.log(g(), typeof y)`,
		"number number\n"},
	{"function-hoisted-within-fragment",
		`eval("console.log(h()); function h(){ return 'hoisted' }"); console.log(typeof h)`,
		"hoisted\nfunction\n"},
	{"caller-local-untouched",
		`function k(){ var z = 1; eval("var z = 5"); return z } console.log(k(), z)`,
		"1 5\n"},
}

// TestEvalDeclarations runs evalDeclPrograms raw and stopified on both
// engines against their expected output.
func TestEvalDeclarations(t *testing.T) {
	opts := core.Defaults()
	opts.Eval = true
	for _, p := range evalDeclPrograms {
		c, err := core.Compile(p.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
			want := outcome{out: p.want}
			if raw := runRawOutcome(p.src, backend); raw != want {
				t.Errorf("%s/%s raw: %v, want %v", p.name, backend, raw, want)
			}
			if st, _ := runStopifiedOutcome(t, c, backend); st != want {
				t.Errorf("%s/%s stopified: %v, want %v", p.name, backend, st, want)
			}
		}
	}
}
