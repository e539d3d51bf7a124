package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/langs"
)

// The engine answers a call of a prelude helper ($add, $lt, $get, ...) itself
// when no operand can reach guest code (interp/helpers.go). These tests pin
// what that may not change — any output, and the statements a slow path runs
// — and what it must: the statements a primitive-only program runs.

func implicitOpts() core.Opts {
	opts := core.Defaults()
	opts.Implicits, opts.Getters = "full", true
	return opts
}

var bothEngines = []string{core.BackendTree, core.BackendBytecode}

// implicitEdgePrograms carry JavaScript's answer. The first three reach an
// accessor through a computed key that is not a string, which $lookupGetter
// and $lookupSetter used to answer with undefined; the fourth has a key whose
// conversion counts its calls; the last is the coercion ladder over
// primitives, every site answered by the engine.
var implicitEdgePrograms = []struct{ name, src, want string }{
	{"number-key-getter", `var o = {};
Object.defineProperty(o, "1", {get: function () { return 5; }});
var i = 1;
console.log(o[i]);`, "5\n"},
	{"object-key-getter", `var p = {get x() { return 7; }};
var k = {toString: function () { return "x"; }};
console.log(p[k]);`, "7\n"},
	{"number-key-setter", `var seen = "unset", o = {};
Object.defineProperty(o, "2", {set: function (v) { seen = v; }});
var i = 2;
o[i] = 9;
console.log(seen, o[i]);`, "9 undefined\n"},
	{"object-key-converted-once", `var n = 0, o = {x: 1};
var k = {toString: function () { n++; return "x"; }};
var r = o[k];
o[k] = 2;
console.log(r, n, o.x);`, "1 2 2\n"},
	{"primitive-ladder", `function f(one, two, s, u, n, t) {
  var a = [one, two, 3];
  console.log(one + s, s * "4", n + one, u + one, t + t, "a" < "b", two < "10", s < "10",
    n == 0, n >= 0, s == two, u != u, NaN != NaN, -s, +t, s.length, "abc"[one], a.length, a[two], a[5]);
  a[4] = one - two;
  console.log(a.length, a[3], a[4], one / 0, 7 % two, "x" + n + u + t);
}
f(1, 2, "2", undefined, null, true);`,
		"12 8 1 NaN 2 true true false false true true false true -2 1 1 b 3 3 undefined\n5 undefined -1 Infinity 1 xnullundefinedtrue\n"},
}

func init() {
	for _, p := range implicitEdgePrograms {
		edgeCasePrograms = append(edgeCasePrograms, p.src)
	}
}

// stopifiedEverywhere runs src under opts on both engines, unpreempted and
// paused after every statement, and requires want each time.
func stopifiedEverywhere(t *testing.T, name, src string, opts core.Opts, want string) {
	t.Helper()
	c, err := core.Compile(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, backend := range bothEngines {
		if got, _ := runStopifiedOutcome(t, c, backend); got != (outcome{out: want}) {
			t.Errorf("%s/%s: %v, want %q", name, backend, got, want)
		}
		if got, pauses := preempted(t, c, backend, 1); got != want || pauses == 0 {
			t.Errorf("%s/%s quantum 1: printed %q over %d pauses, want %q", name, backend, got, pauses, want)
		}
	}
}

func TestImplicitHelperEdges(t *testing.T) {
	for _, p := range implicitEdgePrograms {
		for _, backend := range bothEngines {
			if got := runRawOutcome(p.src, backend); got != (outcome{out: p.want}) {
				t.Errorf("%s/raw/%s: %v, want %q", p.name, backend, got, p.want)
			}
		}
		stopifiedEverywhere(t, p.name, p.src, implicitOpts(), p.want)
	}
}

// TestHelperShadowing: a guest can name the helpers, so what it does to them
// is pinned, not assumed. Every want is what the commit before the engine
// answered helpers printed, byte for byte; the engine answers for a helper
// only while the node called is the prelude's own and the globals its body
// calls are the realm's originals, and again once they are put back.
func TestHelperShadowing(t *testing.T) {
	guests := []struct{ name, src, want string }{
		{"own-$add", `function $add(a, b) { return 42; }
var x = 1, y = 2;
console.log(1 + 2, x + y, $add(x, y));`, "3 42 42\n"},
		{"$toPrim-and-$eq-replaced", `var x = 1, y = 2, keep = $toPrim, keepEq = $eq;
var before = [x + y, x != y];
$toPrim = function (v) { return 7; };
var during = [x + y, x - y, -x, x < y, $toPrim(x)];
$toPrim = keep;
$eq = function () { return true; };
var ne = [x != y, x == y];
$eq = keepEq;
console.log(before.join(), during.join(), ne.join(), [x + y, x != y].join());`,
			"3,true 14,0,-7,false,7 false,true 3,true\n"},
		{"$rawGet-and-$lookupSetter-replaced", `var o = {f: 1, set g(v) { this.f = v; }}, keep = $rawGet, keepSet = $lookupSetter;
$rawGet = function (o, k) { return 99; };
var r = o.f;
$rawGet = keep;
$lookupSetter = function () { return undefined; };
o.g = 5;
$lookupSetter = keepSet;
var f = o.f;
o.g = 6;
console.log(r, f, o.f);`, "99 5 6\n"},
		{"helpers-as-values", `var add = $add, get = $get, ten = {valueOf: function () { return 10; }};
console.log(add(1, 2), add.call(null, "a", 1), $add.apply(null, [3, ten]), $lt.apply(null, [ten, 11]),
  get.call(null, {q: 5}, "q"), $get.apply(null, [{get q() { return 6; }}, "q"]), [1, 2, 3].map($neg).join(), $set.call(null, {}, "k", 8));`,
			"3 a1 13 true 5 6 -1,-2,-3 8\n"},
	}
	for _, g := range guests {
		stopifiedEverywhere(t, g.name, g.src, implicitOpts(), g.want)
	}
}

func kernelSteps(t *testing.T, profile *langs.Profile, suite []langs.Benchmark, name string) uint64 {
	t.Helper()
	for _, b := range suite {
		if b.Name == name {
			return stepsOf(t, b.Source, profile.Opts(core.Defaults()))
		}
	}
	t.Fatalf("no program %s", name)
	return 0
}

func stepsOf(t *testing.T, src string, opts core.Opts) uint64 {
	t.Helper()
	c, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	return run.Steps()
}

// TestImplicitFastPathSteps pins the gain and its absence as statement
// counts, which repeat exactly. Two kernels of the benchmark's catalogue,
// primitive operands nearly everywhere, must stay under a gate well below
// what they ran when every `+` and `o.f` walked its helper's body (265 821
// and 420 744; 68 168 and 250 260 now). And a site whose operand is an object
// or whose key names an accessor must run the statements it ran then: each
// row is the difference between a loop over the site and the same loop
// without it, so the loop's own sites cancel. The first rows have nothing but
// objects and accessors in them and cost exactly what they did; the last
// three are valueof_arith's sites as it writes them, whose slow path itself
// calls $toPrim(2) and, in valueOf, $get(this, "v") — helper calls over
// primitives like any other, so those rows cost less by exactly that much.
func TestImplicitFastPathSteps(t *testing.T) {
	js := langs.JavaScript()
	if got := kernelSteps(t, js, langs.KrakenLike(), "crypto_like"); got > 90_000 {
		t.Errorf("kraken.crypto_like ran %d statements, gate 90000: helpers over primitives are running their bodies", got)
	}
	dart := langs.ByName("dart")
	if got := kernelSteps(t, dart, dart.Benchmarks, "tree_visit"); got > 300_000 {
		t.Errorf("dart.tree_visit ran %d statements, gate 300000: $get over data properties is running its body", got)
	}

	const loop = `function Unit(v) { this.v = v; }
Unit.prototype.valueOf = function () { return %s; };
var a = new Unit(3), b = new Unit(4), r, n = 5;
var o = {_v: 1, get g() { return 1; }, set g(x) {}};
var k = {toString: function () { return "_v"; }};
for (var i = 0; i < 50; i++) { %s }`
	implicits, getters := core.Defaults(), core.Defaults()
	implicits.Implicits, getters.Getters = "full", true
	slow := []struct {
		site    string
		opts    core.Opts
		valueOf string
		was     uint64 // statements 50 executions cost at the parent commit
		want    uint64
	}{
		{"r = a + b;", implicits, "3", 4200, 4200},
		{"r = a * b;", implicits, "3", 4200, 4200},
		{"r = a < b;", implicits, "3", 4200, 4200},
		{"r = -a;", implicits, "3", 2350, 2350},
		{"r = a != b;", implicits, "3", 1600, 1600},
		{"r = o.g;", getters, "3", 1450, 1450},
		{"o.g = n;", getters, "3", 1550, 1550},
		{"r = o[k];", getters, "3", 1400, 1400},
		{"r = a * 2;", implicitOpts(), "this.v", 3600, 2600},
		{"r = n + b;", implicitOpts(), "this.v", 3600, 2600},
		{"r = a < b;", implicitOpts(), "this.v", 5400, 4200},
	}
	for _, s := range slow {
		base := stepsOf(t, fmt.Sprintf(loop, s.valueOf, ""), s.opts)
		if got := stepsOf(t, fmt.Sprintf(loop, s.valueOf, s.site), s.opts) - base; got != s.want {
			t.Errorf("%q: 50 executions cost %d statements, want %d (%d before the engine answered helpers)", s.site, got, s.want, s.was)
		}
	}
}

// hopped runs c pausing after every quantum statements and, at every pause,
// snapshots the guest and carries on in a realm restored from the blob.
func hopped(t *testing.T, c *core.Compiled, backend string, quantum uint64) (string, int) {
	t.Helper()
	run, buf := guardedRun(t, c, backend)
	for hops := 0; ; hops++ {
		run.ArmQuantum(quantum)
		if hops == 0 {
			run.Run(nil)
		} else {
			run.Resume()
		}
		for !run.Paused() && run.Loop.RunOne() {
		}
		if !run.Paused() {
			if _, err := run.Result(); err != nil {
				t.Fatalf("quantum %d after %d hops: %v", quantum, hops, err)
			}
			return buf.String(), hops
		}
		blob, err := run.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at hop %d: %v", hops, err)
		}
		buf = &bytes.Buffer{}
		var next *core.AsyncRun
		next, err = core.RestoreWith(core.RunConfig{
			Backend: backend, Clock: eventloop.NewVirtualClock(), Out: buf, MaxSteps: diffBudget,
			OnQuantum: func() { next.Pause(nil) },
		}, blob, core.RestoreOptions{ReplayOutput: true})
		if err != nil {
			t.Fatalf("Restore at hop %d: %v", hops, err)
		}
		run = next
	}
}

// TestImplicitMixedSite: one `+` whose left operand is a number on even turns
// — the engine answers — and on odd turns an object whose valueOf loops 500
// times, so that the helper's frame is on the stack of every capture taken
// inside it. Preempted at four quanta, resumed in place or restored from a
// snapshot at every pause, the guest prints what it prints raw.
func TestImplicitMixedSite(t *testing.T) {
	const src = `var slow = {valueOf: function () { var s = 0; for (var j = 0; j < 500; j++) { s = s + j % 7; } return s; }};
var total = 0;
for (var i = 0; i < 6; i++) {
  var left = i % 2 === 0 ? i : slow;
  total = total + (left + i);
}
console.log("mixed", total);`
	want := runRawOutcome(src, core.BackendBytecode)
	if want.err != "" || want.out != "mixed 4503\n" {
		t.Fatalf("raw: %v", want)
	}
	c, err := core.Compile(src, implicitOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range bothEngines {
		if got, _ := runStopifiedOutcome(t, c, backend); got != want {
			t.Errorf("%s unpreempted: %v, want %v", backend, got, want)
		}
		for _, quantum := range []uint64{1, 25, 2000} {
			if got, pauses := preempted(t, c, backend, quantum); got != want.out || pauses == 0 {
				t.Errorf("%s quantum %d: printed %q over %d pauses, want %q", backend, quantum, got, pauses, want.out)
			}
			if got, hops := hopped(t, c, backend, quantum); got != want.out || hops == 0 {
				t.Errorf("%s quantum %d, restored at every pause: printed %q over %d hops, want %q", backend, quantum, got, hops, want.out)
			}
		}
	}
}
