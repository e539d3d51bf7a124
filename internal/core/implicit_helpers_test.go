package core_test

import (
	"fmt"
	"strings"
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

// everywhere is p's declared profile on both engines, unpreempted and paused
// after every statement.
func everywhere(p *program) []cell {
	declared := p.profiles()[0]
	var cells []cell
	for _, engine := range bothEngines {
		cells = append(cells, cell{declared, engine, "checked", 0, "cold"}, cell{declared, engine, "checked", 1, "resume"})
	}
	return cells
}

// TestImplicitHelperEdges: the rows of testdata/conformance/implicit carry
// JavaScript's answer. Three reach an accessor through a computed key that is
// not a string, which $lookupGetter and $lookupSetter used to answer with
// undefined; one has a key whose conversion counts its calls; one is the
// coercion ladder over primitives, every site answered by the engine; one
// mixes both at a single site.
func TestImplicitHelperEdges(t *testing.T) {
	rows := 0
	for _, p := range corpus(t) {
		if strings.HasPrefix(p.name, "implicit/") {
			rows++
			p.hold(t, cell{engine: core.BackendTree}, cell{engine: core.BackendBytecode})
			p.hold(t, everywhere(p)...)
		}
	}
	if rows < 6 {
		t.Fatalf("%d rows under %s/implicit", rows, conformanceDir)
	}
}

// TestHelperShadowing: a guest can spell the helpers' names, so what that
// does is pinned, not assumed. The helpers are realm intrinsics, so every want
// is what node prints: a guest's $add is its own, and a guest reading a
// helper's name meets no binding.
func TestHelperShadowing(t *testing.T) {
	guests := []struct{ name, src, want string }{
		{"own-$add", `function $add(a, b) { return 42; }
var x = 1, y = 2;
console.log(1 + 2, x + y, $add(x, y));`, "3 3 42\n"},
		{"$toPrim-and-$eq-replaced", `var x = 1, y = 2, keep = $toPrim, keepEq = $eq;
var before = [x + y, x != y];
$toPrim = function (v) { return 7; };
var during = [x + y, x - y, -x, x < y, $toPrim(x)];
$toPrim = keep;
$eq = function () { return true; };
var ne = [x != y, x == y];
$eq = keepEq;
console.log(before.join(), during.join(), ne.join(), [x + y, x != y].join());`,
			"!ReferenceError: $toPrim is not defined\n"},
		{"$rawGet-and-$lookupSetter-replaced", `var o = {f: 1, set g(v) { this.f = v; }}, keep = $rawGet, keepSet = $lookupSetter;
$rawGet = function (o, k) { return 99; };
var r = o.f;
$rawGet = keep;
$lookupSetter = function () { return undefined; };
o.g = 5;
$lookupSetter = keepSet;
var f = o.f;
o.g = 6;
console.log(r, f, o.f);`, "!ReferenceError: $rawGet is not defined\n"},
		{"helpers-as-values", `var add = $add, get = $get, ten = {valueOf: function () { return 10; }};
console.log(add(1, 2), add.call(null, "a", 1), $add.apply(null, [3, ten]), $lt.apply(null, [ten, 11]),
  get.call(null, {q: 5}, "q"), $get.apply(null, [{get q() { return 6; }}, "q"]), [1, 2, 3].map($neg).join(), $set.call(null, {}, "k", 8));`,
			"!ReferenceError: $add is not defined\n"},
	}
	for _, g := range guests {
		p := inline(g.name, g.src, g.want, implicitOpts())
		p.hold(t, everywhere(p)...)
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

// TestHelperSiteFused: the bytecode engine answers a helper site whose
// arguments are slots and literals in one instruction (OpSiteHelper), and
// what it answers, what it throws and what it leaves to the plain code must
// print and count as the tree-walker does, calm and paused after every
// statement. The counts are those the plain code ran before the instruction
// (wide included). Each guest runs its sites twice or more. A guest that spells neither a
// conversion method nor an accessor compiles without the helpers (the
// options are narrowed to what the program uses), so those start with wide,
// a line that names both.
func TestHelperSiteFused(t *testing.T) {
	const wide = "var wide = {valueOf: null, get accessor() { return 0; }};\n"

	guests := []struct {
		name, src, want string
		steps           uint64 // calm, on either engine
	}{
		{"answered", wide + `function f(a, b, o) { var s = 0; for (var i = 0; i < 3; i++) { s = s + (a + b) * 2 + o.x; } return s; }
console.log(f(1, 2, {x: 4}), f("a", 1, {x: "b"}));`, "30 NaNbNaNbNaNb\n", 405},
		{"throw", wide + `function f(u) { try { var r = u.x; return r; } catch (e) { return e.name; } }
console.log(f({x: 1}), f(undefined), f(null));`, "1 TypeError TypeError\n", 104},
		{"shadowed", `var keep = $add;
function f(a, b) { var s = a + b; return s; }
var r1 = f(1, 2);
$add = function (a, b) { return 42; };
var r2 = f(1, 2);
$add = keep;
console.log(r1, r2, f(1, 2));`, "!ReferenceError: $add is not defined\n", 11},
		{"object-key", wide + `var k = {toString: function () { console.log("toString"); return "x"; }};
function f(o, k) { var v = o[k]; return v; }
console.log(f({x: 5}, k), f({x: 6}, k));`, "toString\ntoString\n5 6\n", 145},
		{"getter", wide + `var o = {get x() { return 6; }};
function f(o) { var s = 0; for (var i = 0; i < 3; i++) { s = s + o.x; } return s; }
console.log(f(o));`, "18\n", 240},
	}
	for _, g := range guests {
		p := inline(g.name, g.src, g.want, implicitOpts())
		cells := everywhere(p)
		p.hold(t, cells...)
		for _, c := range cells {
			if got := p.outcome(c).steps; c.quantum == 0 && got != g.steps {
				t.Errorf("%s/%s: %d statements, want %d", g.name, c, got, g.steps)
			}
		}
	}
}
