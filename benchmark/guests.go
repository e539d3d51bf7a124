package main

import (
	"embed"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/langs"
)

// program is a guest's source text and the console output it must produce.
type program struct{ src, want string }

// guest is one slot of a workload: a family of program texts that all cost
// the same to compile and run and differ only in one fixed-width literal.
type guest struct {
	name string
	opts core.Opts
	// text returns the guest's program. text(0) is the canonical text, the
	// one that recurs verbatim ("hot"); every n > 0 gives a text no other n
	// gives, so a cache keyed by source cannot hit it ("unique").
	text func(n uint64) program
}

// hot is the guest's recurring text.
func (g *guest) hot() program { return g.text(0) }

// unique is a text this process has not produced before.
func (g *guest) unique() program { return g.text(uniqueSeq.Add(1)) }

// uniqueSeq numbers the unique texts of the whole process, so the solo
// phase, the burst phase, the probes and the warm-up never share one.
var uniqueSeq atomic.Uint64

// Literals are seven digits wide so every text of a guest has the same
// length and token count. Hot literals live in [1000000, 2000000), unique
// ones in [2000000, 10000000): the two can never produce the same text.
const (
	hotLo      = 1_000_000
	hotSpan    = 1_000_000
	uniqueLo   = 2_000_000
	uniqueSpan = 8_000_000
	// uniqueStride shares no factor with uniqueSpan (2^9·5^6), so n ↦
	// n·stride mod span is a bijection: unique literals collide only after
	// eight million of them.
	uniqueStride = 2_654_437
)

// literals maps a text number to its literal: one hot value picked by the
// seed, and a seed-offset walk through the unique range.
type literals struct{ hotLit, base uint64 }

func newLiterals(rng *rand.Rand) literals {
	return literals{
		hotLit: hotLo + uint64(rng.Intn(hotSpan)),
		base:   uint64(rng.Intn(uniqueSpan)),
	}
}

func (l literals) at(n uint64) uint64 {
	if n == 0 {
		return l.hotLit
	}
	return uniqueLo + (l.base+n*uniqueStride)%uniqueSpan
}

// ---------------------------------------------------------------------------
// Kernels: programs of internal/langs, checked against committed outputs
// ---------------------------------------------------------------------------

//go:embed testdata/golden/*.txt
var goldenFS embed.FS

const goldenDir = "testdata/golden"

// kernelRef names one program of internal/langs by suite and name.
type kernelRef struct{ suite, name string }

func (k kernelRef) String() string { return k.suite + "." + k.name }

// kernelCatalogue is the program set of the `kernels` workload: two
// programs of each of the ten language profiles of Figure 5, drawn once
// with math/rand seed 2018 from the profile's programs that execute 35 000
// to 600 000 statements when stopified, then frozen here so that a program
// added to internal/langs later cannot shift the baseline; plus the two
// cheapest programs of the Octane-like and of the Kraken-like suite
// (Figure 13), which keeps a round under a third of a second.
var kernelCatalogue = []kernelRef{
	{"python", "pystone"}, {"python", "nbody"},
	{"scala", "fold_sum"}, {"scala", "queens"},
	{"scheme", "apply_list"}, {"scheme", "sumloop"},
	{"clojure", "comp_chain"}, {"clojure", "frequencies"},
	{"dart", "getters_hot"}, {"dart", "tree_visit"},
	{"cpp", "fixedpoint"}, {"cpp", "crc32"},
	{"ocaml", "tuples"}, {"ocaml", "sieve_rec"},
	{"java", "hashmap"}, {"java", "inheritance"},
	{"javascript", "valueof_arith"}, {"javascript", "dynamic_props"},
	{"pyret", "string_explode"}, {"pyret", "binomial"},
	{"octane", "splay_like"}, {"octane", "deltablue_like"},
	{"kraken", "crypto_like"}, {"kraken", "astar_like"},
}

// migrateCatalogue is the program set of the `migrate` workload: the twelve
// catalogue kernels that run 100 000 to 300 000 statements, so that under a
// 20 000-statement quantum each hops between realms 5 to 14 times.
var migrateCatalogue = []kernelRef{
	{"python", "pystone"}, {"python", "nbody"},
	{"scala", "fold_sum"}, {"scala", "queens"},
	{"scheme", "sumloop"}, {"clojure", "frequencies"},
	{"cpp", "fixedpoint"}, {"cpp", "crc32"},
	{"ocaml", "sieve_rec"}, {"java", "hashmap"},
	{"javascript", "dynamic_props"}, {"pyret", "binomial"},
}

// kernelSource finds a catalogue program and the compile options of its
// suite. Octane-like and Kraken-like programs are plain JavaScript and take
// the JavaScript profile's full sub-language, as Figure 13 does.
func kernelSource(k kernelRef) (string, core.Opts, error) {
	var suite []langs.Benchmark
	profile := langs.ByName(k.suite)
	switch k.suite {
	case "octane":
		suite, profile = langs.OctaneLike(), langs.JavaScript()
	case "kraken":
		suite, profile = langs.KrakenLike(), langs.JavaScript()
	default:
		if profile == nil {
			return "", core.Opts{}, fmt.Errorf("kernel %s: no such language profile", k)
		}
		suite = profile.Benchmarks
	}
	for _, b := range suite {
		if b.Name == k.name {
			return b.Source, profile.Opts(core.Defaults()), nil
		}
	}
	return "", core.Opts{}, fmt.Errorf("kernel %s: no such program", k)
}

func goldenPath(k kernelRef) string { return goldenDir + "/" + k.String() + ".txt" }

// kernelGuest wraps a catalogue program as a guest. The program text is the
// kernel followed by one line that prints the guest's literal; the expected
// output is the committed golden output followed by that line. The literal
// is all the seed changes, so every seed runs the same work.
func kernelGuest(k kernelRef, lits literals) (*guest, error) {
	src, opts, err := kernelSource(k)
	if err != nil {
		return nil, err
	}
	golden, err := goldenFS.ReadFile(goldenPath(k))
	if err != nil {
		return nil, fmt.Errorf("kernel %s has no golden output (run -update-golden): %w", k, err)
	}
	return &guest{name: k.String(), opts: opts, text: func(n uint64) program {
		lit := strconv.FormatUint(lits.at(n), 10)
		return program{
			src:  src + "\nconsole.log(\"seed\", " + lit + ");\n",
			want: string(golden) + "seed " + lit + "\n",
		}
	}}, nil
}

// kernelGuests builds the guests of a catalogue in a seed-shuffled order.
func kernelGuests(catalogue []kernelRef, rng *rand.Rand) ([]*guest, error) {
	out := make([]*guest, 0, len(catalogue))
	for _, k := range catalogue {
		g, err := kernelGuest(k, newLiterals(rng))
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// ---------------------------------------------------------------------------
// Generated guests: templates whose expected output is computed in Go
// ---------------------------------------------------------------------------

// template is a generated guest program: JavaScript with one literal K, and
// the Go function that computes what the program prints for a given K. K
// never decides a loop bound or a recursion depth, so cost does not depend
// on it.
type template struct {
	name string
	js   string // contains the placeholder K exactly once
	want func(k uint64) string
}

func (t template) guest(lits literals) *guest {
	return &guest{name: t.name, opts: core.Defaults(), text: func(n uint64) program {
		k := lits.at(n)
		return program{
			src:  strings.Replace(t.js, "K", strconv.FormatUint(k, 10), 1),
			want: t.want(k),
		}
	}}
}

// admitTemplates are the five request-sized guests of the `admit` workload:
// each executes a few hundred statements, so compiling it and building its
// realm cost several times what running it does.
var admitTemplates = []template{
	{"sum", `var k = K;
var s = 0;
for (var i = 0; i < 40; i++) { s = (s + i * k) % 1000003; }
console.log("sum", s);
`, func(k uint64) string {
		s := uint64(0)
		for i := uint64(0); i < 40; i++ {
			s = (s + i*k) % 1000003
		}
		return fmt.Sprintf("sum %d\n", s)
	}},
	{"str", `var k = K;
var t = "";
for (var i = 0; i < 24; i++) { t = t + String.fromCharCode(97 + (k + i * 7) % 26); }
console.log("str", t, t.length);
`, func(k uint64) string {
		var t []byte
		for i := uint64(0); i < 24; i++ {
			t = append(t, byte(97+(k+i*7)%26))
		}
		return fmt.Sprintf("str %s %d\n", t, len(t))
	}},
	{"arr", `var k = K;
var a = [];
for (var i = 0; i < 30; i++) { a.push((k + i * i) % 97); }
var m = 0;
for (var j = 0; j < a.length; j++) { if (a[j] > m) { m = a[j]; } }
console.log("arr", m, a.length);
`, func(k uint64) string {
		m := uint64(0)
		for i := uint64(0); i < 30; i++ {
			if v := (k + i*i) % 97; v > m {
				m = v
			}
		}
		return fmt.Sprintf("arr %d 30\n", m)
	}},
	{"fib", `var k = K;
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log("fib", fib(8) + k % 1000);
`, func(k uint64) string {
		return fmt.Sprintf("fib %d\n", fib(8)+k%1000)
	}},
	{"obj", `var k = K;
var o = {n: 0, hits: 0};
function bump(o, d) { o.n = (o.n + d) % 9973; o.hits = o.hits + 1; return o; }
for (var i = 0; i < 25; i++) { bump(o, k + i); }
console.log("obj", o.n, o.hits);
`, func(k uint64) string {
		n := uint64(0)
		for i := uint64(0); i < 25; i++ {
			n = (n + k + i) % 9973
		}
		return fmt.Sprintf("obj %d 25\n", n)
	}},
}

// sliceTemplates are the six guests of one `timeslice` epoch: recursion on
// deep stacks, so that every quantum expiry captures and reinstates many
// frames. Each runs 100 000 to 200 000 statements on a stack at most 330 frames
// deep: at the default quantum a recursion 400 frames deep re-executes more
// statements reinstating its stack than the quantum grants (README,
// findings), which is a result and not a workload.
var sliceTemplates = []template{
	{"fib", `var k = K;
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log("fib", fib(18) + k % 1000);
`, func(k uint64) string {
		return fmt.Sprintf("fib %d\n", fib(18)+k%1000)
	}},
	{"tak", `var k = K;
function tak(x, y, z) { if (y >= x) { return z; } return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y)); }
console.log("tak", tak(15, 10, 5) + k % 1000);
`, func(k uint64) string {
		return fmt.Sprintf("tak %d\n", uint64(tak(15, 10, 5))+k%1000)
	}},
	{"divrec", `var k = K;
function build(n) { if (n === 0) { return null; } return {head: n, tail: build(n - 1)}; }
function div2(l) { if (l === null || l.tail === null) { return null; } return {head: l.head, tail: div2(l.tail.tail)}; }
function len(l) { if (l === null) { return 0; } return 1 + len(l.tail); }
var total = 0;
for (var r = 0; r < 60; r++) { total = total + len(div2(build(60))); }
console.log("divrec", total + k % 1000);
`, func(k uint64) string {
		return fmt.Sprintf("divrec %d\n", 60*30+k%1000)
	}},
	{"trees", `var k = K;
function make(d) { if (d === 0) { return {left: null, right: null}; } return {left: make(d - 1), right: make(d - 1)}; }
function check(t) { if (t.left === null) { return 1; } return 1 + check(t.left) + check(t.right); }
var total = 0;
for (var r = 0; r < 4; r++) { total = total + check(make(9)); }
console.log("trees", total + k % 1000);
`, func(k uint64) string {
		return fmt.Sprintf("trees %d\n", 4*1023+k%1000)
	}},
	{"ack", `var k = K;
function ack(m, n) { if (m === 0) { return n + 1; } if (n === 0) { return ack(m - 1, 1); } return ack(m - 1, ack(m, n - 1)); }
var total = 0;
for (var r = 0; r < 6; r++) { total = total + ack(2, 25); }
console.log("ack", total + k % 1000);
`, func(k uint64) string {
		return fmt.Sprintf("ack %d\n", 6*(2*25+3)+k%1000)
	}},
	{"parity", `var k = K;
function even(n) { if (n === 0) { return 1; } return odd(n - 1); }
function odd(n) { if (n === 0) { return 0; } return even(n - 1); }
var total = 0;
for (var r = 0; r < 30; r++) { total = total + even(300 + r); }
console.log("parity", total + k % 1000);
`, func(k uint64) string {
		return fmt.Sprintf("parity %d\n", 15+k%1000)
	}},
}

// lineTemplate is the one-line guest the layer table submits behind a burst
// to see that a short request is not starved by long ones.
var lineTemplate = template{"line", "console.log(\"line\", K);\n", func(k uint64) string {
	return fmt.Sprintf("line %d\n", k)
}}

func fib(n uint64) uint64 {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

func tak(x, y, z int) int {
	if y >= x {
		return z
	}
	return tak(tak(x-1, y, z), tak(y-1, z, x), tak(z-1, x, y))
}

// templateGuests instantiates each template once, in a seed-shuffled order.
func templateGuests(ts []template, rng *rand.Rand) []*guest {
	out := make([]*guest, len(ts))
	for i, t := range ts {
		out[i] = t.guest(newLiterals(rng))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// admitSlot is one request of an `admit` round.
type admitSlot struct {
	g      *guest
	unique bool // a text never seen before, against the guest's hot text
}

func (s admitSlot) next() program {
	if s.unique {
		return s.g.unique()
	}
	return s.g.hot()
}

const (
	admitSlots = 300
	admitHot   = 16 // distinct hot sources
)

// admitPlan lays out one `admit` round: admitSlots requests, half drawing on
// admitHot hot sources that recur verbatim, half unique texts. Every
// template fills the same number of slots of each kind whatever the seed,
// which only picks the literals and the order. The second result is the
// layer table's probe set: four guests of each template.
func admitPlan(rng *rand.Rand) ([]admitSlot, []*guest) {
	hot := make([]*guest, admitHot)
	for i := range hot {
		hot[i] = admitTemplates[i%len(admitTemplates)].guest(newLiterals(rng))
	}
	fresh := make([]*guest, len(admitTemplates))
	for i, t := range admitTemplates {
		fresh[i] = t.guest(newLiterals(rng))
	}
	slots := make([]admitSlot, 0, admitSlots)
	for i := 0; i < admitSlots/2; i++ {
		slots = append(slots, admitSlot{g: hot[i%len(hot)]})
		slots = append(slots, admitSlot{g: fresh[i%len(fresh)], unique: true})
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots, append(append([]*guest(nil), hot[:15]...), fresh...)
}
