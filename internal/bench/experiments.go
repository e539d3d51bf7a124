package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/langs"
	"repro/internal/langs/native"
	"repro/internal/stats"
)

// pick returns at most n benchmarks in quick mode, all otherwise.
func pick(cfg Config, bs []langs.Benchmark, n int) []langs.Benchmark {
	if cfg.Quick && len(bs) > n {
		return bs[:n]
	}
	return bs
}

// baseOpts is the harness-wide Stopify configuration: yield every 100 ms
// with the approx estimator, per §6.1's setup.
func baseOpts() core.Opts {
	o := core.Defaults()
	o.YieldIntervalMs = 100
	o.Timer = "approx"
	return o
}

// Fig2aImplicits reproduces Figure 2a: the Python suite with conservative
// (full-implicits) settings versus the PyJS sub-language (no implicits).
func Fig2aImplicits(cfg Config) (string, error) {
	eng := engine.Chrome()
	py := langs.Python()
	t := newTable("Figure 2a — implicit method calls vs none (Python/PyJS, chrome)")
	t.row("%-18s %12s %12s %8s", "benchmark", "implicits ✓", "implicits ✗", "ratio")
	var ratios []float64
	for _, b := range pick(cfg, py.Benchmarks, 4) {
		conservative := py.Opts(baseOpts())
		conservative.Implicits = "full"
		withImpl, err := slowdown(b.Name, b.Source, conservative, eng, cfg)
		if err != nil {
			return "", err
		}
		tuned := py.Opts(baseOpts())
		noImpl, err := slowdown(b.Name, b.Source, tuned, eng, cfg)
		if err != nil {
			return "", err
		}
		ratio := withImpl.Slowdown / noImpl.Slowdown
		ratios = append(ratios, ratio)
		t.row("%-18s %11.1fx %11.1fx %7.1fx", b.Name, withImpl.Slowdown, noImpl.Slowdown, ratio)
	}
	t.row("paper: conservative settings cost several times more than the sub-language (Fig 2a)")
	t.row("measured mean implicit-cost ratio: %.1fx", stats.Mean(ratios))
	return t.String(), nil
}

// Fig2bConstructors reproduces Figure 2b: desugared versus dynamic
// (wrapped) constructors on a Chrome-like and an Edge-like engine. The
// class-heavy Java suite supplies the constructor pressure.
func Fig2bConstructors(cfg Config) (string, error) {
	jv := langs.Java()
	t := newTable("Figure 2b — constructor encoding by engine (Java/JSweet suite)")
	t.row("%-16s %10s %10s %10s %10s", "benchmark", "chr/desug", "chr/dyn", "edge/desug", "edge/dyn")
	engines := []*engine.Profile{engine.Chrome(), engine.Edge()}
	sums := map[string]float64{}
	for _, b := range pick(cfg, jv.Benchmarks, 3) {
		vals := map[string]float64{}
		for _, eng := range engines {
			for _, ctor := range []string{"direct", "wrapped"} {
				o := jv.Opts(baseOpts())
				o.Ctor = ctor
				m, err := slowdown(b.Name, b.Source, o, eng, cfg)
				if err != nil {
					return "", err
				}
				key := eng.Name + "/" + ctor
				vals[key] = m.Slowdown
				sums[key] += m.Slowdown
			}
		}
		t.row("%-16s %9.1fx %9.1fx %9.1fx %9.1fx", b.Name,
			vals["chrome/direct"], vals["chrome/wrapped"], vals["edge/direct"], vals["edge/wrapped"])
	}
	t.row("paper: desugaring wins on Chrome, the dynamic check wins on Edge (Fig 2b)")
	t.row("measured: chrome desugar %.1f vs dynamic %.1f; edge desugar %.1f vs dynamic %.1f",
		sums["chrome/direct"], sums["chrome/wrapped"], sums["edge/direct"], sums["edge/wrapped"])
	return t.String(), nil
}

// yieldIntervals runs one program and returns the observed gaps between
// yields (the event-loop task durations, which is how long the "browser"
// was blocked).
func yieldIntervals(src string, opts core.Opts, eng *engine.Profile) ([]float64, error) {
	c, err := core.Compile(src, opts)
	if err != nil {
		return nil, err
	}
	run, err := c.NewRun(core.RunConfig{Engine: eng, Seed: 1})
	if err != nil {
		return nil, err
	}
	run.Loop.TaskDurations = []float64{} // the loop records only when asked
	if err := run.RunToCompletion(); err != nil {
		return nil, err
	}
	durations := run.Loop.TaskDurations
	if len(durations) > 1 {
		durations = durations[:len(durations)-1] // final partial slice
	}
	return durations, nil
}

// Fig2cYieldInterval reproduces Figure 2c: average time between yields for
// the countdown estimator (fixed execution-rate assumption) versus the
// sampling estimator, on two engines. Quick mode shrinks δ so short
// benchmarks still yield repeatedly.
func Fig2cYieldInterval(cfg Config) (string, error) {
	delta := 100.0
	countdownN := 1000000
	reps := 40
	if cfg.Quick {
		delta = 5
		countdownN = 40000
		reps = 4
	}
	py := langs.Python()
	t := newTable(fmt.Sprintf("Figure 2c — average time between yields (δ=%.0fms)", delta))
	t.row("%-18s %16s %16s %16s %16s", "benchmark", "chrome/countdown", "chrome/approx", "edge/countdown", "edge/approx")
	for _, b := range pick(cfg, py.Benchmarks, 3) {
		src := loopify(b.Source, reps)
		row := []string{}
		for _, eng := range []*engine.Profile{engine.Chrome(), engine.Edge()} {
			for _, timer := range []string{"countdown", "approx"} {
				o := py.Opts(baseOpts())
				o.Timer = timer
				o.YieldIntervalMs = delta
				o.CountdownN = countdownN
				gaps, err := yieldIntervals(src, o, eng)
				if err != nil {
					return "", err
				}
				if len(gaps) == 0 {
					row = append(row, "(no yields)")
					continue
				}
				row = append(row, fmt.Sprintf("%7.1fms", stats.Mean(gaps)))
			}
		}
		t.row("%-18s %16s %16s %16s %16s", b.Name, row[0], row[1], row[2], row[3])
	}
	t.row("paper: countdown varies wildly across benchmarks and engines; approx stays near δ (Fig 2c)")
	return t.String(), nil
}

// Fig7Estimators reproduces Figure 7: mean ± stddev of the interrupt
// interval for the countdown, approx, and exact estimators.
func Fig7Estimators(cfg Config) (string, error) {
	delta := 100.0
	countdownN := 1000000
	reps := 40
	if cfg.Quick {
		delta = 5
		countdownN = 40000
		reps = 4
	}
	py := langs.Python()
	eng := engine.Chrome()
	t := newTable(fmt.Sprintf("Figure 7 — estimator strategies, interrupt interval μ±σ (δ=%.0fms)", delta))
	t.row("%-18s %18s %18s %18s", "benchmark", "countdown", "approximate", "exact")
	for _, b := range pick(cfg, py.Benchmarks, 3) {
		src := loopify(b.Source, reps)
		cells := []string{}
		for _, timer := range []string{"countdown", "approx", "exact"} {
			o := py.Opts(baseOpts())
			o.Timer = timer
			o.YieldIntervalMs = delta
			o.CountdownN = countdownN
			gaps, err := yieldIntervals(src, o, eng)
			if err != nil {
				return "", err
			}
			if len(gaps) == 0 {
				cells = append(cells, "(no yields)")
				continue
			}
			cells = append(cells, fmt.Sprintf("%6.1f ± %5.1f ms", stats.Mean(gaps), stats.Stddev(gaps)))
		}
		t.row("%-18s %18s %18s %18s", b.Name, cells[0], cells[1], cells[2])
	}
	t.row("paper: countdown μ ranges 68–386ms; approx ≈ δ; exact ≈ δ with tiny σ (Fig 7)")
	return t.String(), nil
}

// loopify repeats a benchmark's whole source body inside a driver loop by
// wrapping it in a function executed reps times — used by the
// responsiveness experiments, which need programs that run much longer
// than δ.
func loopify(src string, reps int) string {
	return "function $benchBody() {\n" + src + "\n}\n" +
		fmt.Sprintf("for (var $r = 0; $r < %d; $r++) { $benchBody(); }\n", reps)
}

// Fig5Table prints the compiler/sub-language matrix.
func Fig5Table(Config) (string, error) {
	t := newTable("Figure 5 — compilers and their sub-languages")
	t.row("%-12s %-14s %-6s %-8s %-8s %-6s %6s", "language", "compiler", "impl", "args", "getters", "eval", "benchs")
	for _, p := range langs.All() {
		t.row("%-12s %-14s %-6s %-8s %-8v %-6v %6d",
			p.Name, p.Compiler, p.Impl, p.Args, p.Getters, p.Eval, len(p.Benchmarks))
	}
	t.row("total benchmarks: %d (paper: 147)", langs.TotalBenchmarks())
	return t.String(), nil
}

// Fig10Languages reproduces Figure 10: slowdown distributions for the nine
// §6.1 languages across the five platforms, using each language's
// sub-language and each engine's best strategy (Figure 11).
func Fig10Languages(cfg Config) (string, error) {
	engines := engine.Profiles()
	names := []string{"chrome", "chromebook", "edge", "firefox", "safari"}
	if cfg.Quick {
		names = []string{"chrome", "edge"}
	}
	t := newTable("Figure 10 — median slowdown by language and platform")
	header := fmt.Sprintf("%-12s", "language")
	for _, n := range names {
		header += fmt.Sprintf(" %11s", n)
	}
	t.row("%s", header)

	profiles := langs.All()[:9] // Pyret is §6.4
	if cfg.Quick {
		profiles = profiles[:3]
	}
	for _, p := range profiles {
		line := fmt.Sprintf("%-12s", p.Name)
		for _, en := range names {
			eng := engines[en]
			opts := p.Opts(baseOpts())
			opts.Cont, opts.Ctor = BestStrategy(eng)
			var slowdowns []float64
			for _, b := range pick(cfg, p.Benchmarks, 2) {
				m, err := slowdown(b.Name, b.Source, opts, eng, cfg)
				if err != nil {
					return "", fmt.Errorf("%s on %s: %w", p.Name, en, err)
				}
				slowdowns = append(slowdowns, m.Slowdown)
			}
			line += fmt.Sprintf(" %10.1fx", stats.Median(slowdowns))
		}
		t.row("%s", line)
	}
	t.row("paper medians (chrome): C++ 11.6, Clojure 9.1, Dart 3.0, Java 8.1, JS 20.0, OCaml 5.4, Python 1.7, Scala 14.6, Scheme 8.8")
	return t.String(), nil
}

// BestStrategy returns the per-engine continuation and constructor choices
// Figure 11 reports: exceptional+desugar everywhere except Edge-like
// engines, where checked+dynamic wins.
func BestStrategy(eng *engine.Profile) (cont, ctor string) {
	if eng.TryCost > 10 {
		return "checked", "wrapped"
	}
	return "exceptional", "direct"
}

// Fig11Strategies measures every strategy pair per engine and reports the
// winner, reproducing Figure 11's table.
func Fig11Strategies(cfg Config) (string, error) {
	t := newTable("Figure 11 — best implementation strategy per engine")
	t.row("%-12s %-14s %-12s", "platform", "continuations", "constructors")
	suite := pick(cfg, langs.Java().Benchmarks, 2)
	names := []string{"chrome", "edge", "firefox", "safari"}
	if cfg.Quick {
		names = []string{"chrome", "edge"}
	}
	for _, en := range names {
		eng := engine.Profiles()[en]
		bestCont, bestCtor, best := "", "", 0.0
		for _, cont := range []string{"checked", "exceptional", "eager"} {
			for _, ctor := range []string{"direct", "wrapped"} {
				total := 0.0
				for _, b := range suite {
					o := langs.Java().Opts(baseOpts())
					o.Cont = cont
					o.Ctor = ctor
					m, err := slowdown(b.Name, b.Source, o, eng, cfg)
					if err != nil {
						return "", err
					}
					total += m.Slowdown
				}
				if bestCont == "" || total < best {
					best = total
					bestCont, bestCtor = cont, ctor
				}
			}
		}
		label := bestCtor
		if label == "direct" {
			label = "desugar"
		} else {
			label = "dynamic"
		}
		t.row("%-12s %-14s %-12s", en, bestCont, label)
	}
	t.row("paper: Edge checked+dynamic; Chrome/Firefox/Safari exceptional+desugar (Fig 11)")
	return t.String(), nil
}

// Fig12Skulpt reproduces Figure 12: Stopify-compiled Python versus a
// Skulpt-like execution layer; values below 1 mean Stopify is faster.
func Fig12Skulpt(cfg Config) (string, error) {
	py := langs.Python()
	eng := engine.Chrome()
	t := newTable("Figure 12 — slowdown relative to Skulpt (μ; <1 means Stopify faster)")
	t.row("%-18s %10s", "benchmark", "μ")
	var all []float64
	for _, b := range pick(cfg, py.Benchmarks, 4) {
		opts := py.Opts(baseOpts())
		stopMs, err := timeStopified(b.Source, opts, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		skSrc, err := baselines.CompileSkulpt(b.Source)
		if err != nil {
			return "", err
		}
		skMs, err := timeRaw(skSrc, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		ratio := stopMs / skMs
		all = append(all, ratio)
		t.row("%-18s %9.2f", b.Name, ratio)
	}
	t.row("paper: 0.08–1.25, Stopify faster or competitive on all benchmarks (Fig 12)")
	t.row("measured mean: %.2f", stats.Mean(all))
	return t.String(), nil
}

// Fig13OctaneKraken reproduces Figure 13: Stopify's slowdown on an
// Octane-like suite versus a Kraken-like suite under full-JavaScript
// settings.
func Fig13OctaneKraken(cfg Config) (string, error) {
	eng := engine.Chrome()
	js := langs.JavaScript()
	t := newTable("Figure 13 — Octane-like vs Kraken-like (JavaScript, full sub-language)")
	measure := func(suite []langs.Benchmark) ([]float64, error) {
		var out []float64
		for _, b := range pick(cfg, suite, 2) {
			o := js.Opts(baseOpts())
			// Octane/Kraken sources are plain JavaScript: full implicits.
			m, err := slowdown(b.Name, b.Source, o, eng, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, m.Slowdown)
			t.row("  %-22s %8.1fx", b.Name, m.Slowdown)
		}
		return out, nil
	}
	t.row("octane-like:")
	oct, err := measure(langs.OctaneLike())
	if err != nil {
		return "", err
	}
	t.row("kraken-like:")
	kra, err := measure(langs.KrakenLike())
	if err != nil {
		return "", err
	}
	t.row("medians: octane-like %.1fx, kraken-like %.1fx", stats.Median(oct), stats.Median(kra))
	t.row("paper: Octane median 1.3x vs Kraken median 41.0x — implicit-call frequency decides (Fig 13)")
	return t.String(), nil
}

// Fig14Pyret reproduces Figure 14: Pyret on Stopify versus classic Pyret's
// own gas-counting instrumentation (countdown timer), plus the deep-stack
// penalty the paper reports for deeply recursive benchmarks.
func Fig14Pyret(cfg Config) (string, error) {
	py := langs.Pyret()
	eng := engine.Chrome()
	t := newTable("Figure 14 — Pyret with Stopify vs classic Pyret")
	t.row("%-18s %10s", "benchmark", "ratio")
	var ratios []float64
	for _, b := range pick(cfg, py.Benchmarks, 3) {
		stopifyOpts := py.Opts(baseOpts())
		stopifyOpts.Cont, stopifyOpts.Ctor = BestStrategy(eng)
		stopMs, err := timeStopified(b.Source, stopifyOpts, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		classic := py.Opts(baseOpts())
		classic.Timer = "countdown"
		classic.CountdownN = 100000
		classicMs, err := timeStopified(b.Source, classic, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		r := stopMs / classicMs
		ratios = append(ratios, r)
		t.row("%-18s %9.2f", b.Name, r)
	}
	t.row("paper: median 1.1x on Chrome — Stopify matches five years of hand instrumentation (Fig 14)")
	t.row("measured median: %.2f", stats.Median(ratios))
	return t.String(), nil
}

// Fig15Native reproduces Figure 15: the cost of running in the browser
// substrate (our interpreter) relative to native, without Stopify.
func Fig15Native(cfg Config) (string, error) {
	eng := engine.Chrome()
	jsSources := map[string]string{
		"fib":           langs.Python().Benchmarks[3].Source,
		"nbody":         langs.Python().Benchmarks[5].Source,
		"spectral_norm": langs.Python().Benchmarks[9].Source,
		"binary_trees":  langs.Python().Benchmarks[1].Source,
		"scimark_fft":   langs.Python().Benchmarks[8].Source,
	}
	t := newTable("Figure 15 — browser-vs-native slowdown (no Stopify)")
	t.row("%-16s %12s", "kernel", "slowdown")
	kernels := native.Kernels()
	if cfg.Quick {
		kernels = kernels[:3]
	}
	for _, k := range kernels {
		src, ok := jsSources[k.Name]
		if !ok {
			continue
		}
		// Native timing.
		start := time.Now()
		sink := 0.0
		for i := 0; i < cfg.Repeats; i++ {
			sink += k.Run()
		}
		nativeMs := float64(time.Since(start)) / 1e6 / float64(cfg.Repeats)
		_ = sink
		jsMs, err := timeRaw(src, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		ratio := jsMs / nativeMs
		t.row("%-16s %11.0fx", k.Name, ratio)
	}
	t.row("paper: 0.5x–68x by compiler; ratios here: function bodies as bytecode on this interpreter, top level tree-walked, vs native Go (Fig 15)")
	return t.String(), nil
}

// Strawmen reproduces §3's claim: CPS and generator implementations of
// continuations are substantially slower than Stopify's checked-return
// approach.
func Strawmen(cfg Config) (string, error) {
	eng := engine.Chrome()
	suite := []langs.Benchmark{
		langs.Python().Benchmarks[3], // fib
		{Name: "tak", Source: strawmanTak},
		{Name: "sumloop", Source: strawmanSumLoop},
		{Name: "evenodd", Source: strawmanEvenOdd},
	}
	if cfg.Quick {
		suite = suite[:2]
	}
	t := newTable("§3 strawmen — slowdown vs raw (lower is better)")
	t.row("%-12s %10s %10s %10s", "benchmark", "checked", "cps", "generator")
	var ck, cp, gn []float64
	for _, b := range suite {
		opts := core.Defaults()
		opts.Cont = "checked"
		opts.YieldIntervalMs = 100
		m, err := slowdown(b.Name, b.Source, opts, eng, cfg)
		if err != nil {
			return "", err
		}
		raw := m.RawMs

		cpsSrc, err := baselines.CompileCPS(b.Source)
		if err != nil {
			return "", err
		}
		cpsMs, err := timeRaw(cpsSrc, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		genSrc, err := baselines.CompileGen(b.Source)
		if err != nil {
			return "", err
		}
		genMs, err := timeRaw(genSrc, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		ck = append(ck, m.Slowdown)
		cp = append(cp, cpsMs/raw)
		gn = append(gn, genMs/raw)
		t.row("%-12s %9.1fx %9.1fx %9.1fx", b.Name, m.Slowdown, cpsMs/raw, genMs/raw)
	}
	t.row("paper: cps ≈3x and generators ≈2x slower than the checked-return approach (§3)")
	t.row("measured means: checked %.1fx, cps %.1fx, generators %.1fx",
		stats.Mean(ck), stats.Mean(cp), stats.Mean(gn))
	return t.String(), nil
}

const strawmanTak = `
function tak(x, y, z) {
  if (y >= x) { return z; }
  return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y));
}
console.log("tak", tak(12, 6, 0));
`

const strawmanSumLoop = `
function step(acc, i) { return acc + i * i; }
function run(n) {
  var acc = 0;
  for (var i = 0; i < n; i++) { acc = step(acc, i); }
  return acc;
}
console.log("sumloop", run(4000));
`

const strawmanEvenOdd = `
function even(n) { if (n === 0) { return true; } return odd(n - 1); }
function odd(n) { if (n === 0) { return false; } return even(n - 1); }
var t = 0;
for (var i = 0; i < 200; i++) { if (even(i % 90)) { t++; } }
console.log("evenodd", t);
`

// CodeSize reproduces §6.1's code-growth observation (8x ± 5x).
func CodeSize(cfg Config) (string, error) {
	t := newTable("§6.1 — code growth after instrumentation")
	var factors []float64
	for _, p := range langs.All() {
		for _, b := range pick(cfg, p.Benchmarks, 2) {
			c, err := core.Compile(b.Source, p.Opts(baseOpts()))
			if err != nil {
				return "", fmt.Errorf("%s/%s: %w", p.Name, b.Name, err)
			}
			factors = append(factors, float64(c.CompiledBytes)/float64(c.SourceBytes))
		}
	}
	sort.Float64s(factors)
	t.row("benchmarks measured: %d", len(factors))
	t.row("growth factor: mean %.1fx, stddev %.1fx, median %.1fx",
		stats.Mean(factors), stats.Stddev(factors), stats.Median(factors))
	t.row("paper: 8x mean with 5x stddev (§6.1)")
	return t.String(), nil
}

// Experiment is one table or figure the harness regenerates.
type Experiment struct {
	ID  string
	Run func(Config) (string, error)
}

// Experiments lists every experiment, in presentation order.
var Experiments = []Experiment{
	{"5", Fig5Table},
	{"2a", Fig2aImplicits},
	{"2b", Fig2bConstructors},
	{"2c", Fig2cYieldInterval},
	{"7", Fig7Estimators},
	{"10", Fig10Languages},
	{"11", Fig11Strategies},
	{"12", Fig12Skulpt},
	{"13", Fig13OctaneKraken},
	{"14", Fig14Pyret},
	{"15", Fig15Native},
	{"strawmen", Strawmen},
	{"codesize", CodeSize},
	{"ablation-guards", AblationGuards},
}

// RunAll executes every experiment and concatenates the tables.
func RunAll(cfg Config) (string, error) {
	var b strings.Builder
	for _, e := range Experiments {
		out, err := e.Run(cfg)
		if err != nil {
			return b.String(), fmt.Errorf("figure %s: %w", e.ID, err)
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String(), nil
}
