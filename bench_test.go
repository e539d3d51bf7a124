package stopify

// One benchmark per table and figure of the paper's evaluation. Each bench
// drives the same experiment code as cmd/stopibench at quick settings, so
// `go test -bench=.` regenerates (a fast rendition of) every result;
// `go run ./cmd/stopibench` produces the full-size versions.

import (
	"testing"

	"repro/internal/bench"
)

func runFigure(b *testing.B, fn func(bench.Config) (string, error)) {
	b.Helper()
	cfg := bench.QuickConfig()
	for i := 0; i < b.N; i++ {
		out, err := fn(cfg)
		if err != nil {
			b.Fatalf("%v\n%s", err, out)
		}
		if len(out) == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

// BenchmarkFig02aImplicits regenerates Figure 2a: the cost of conservative
// full-implicit settings versus the PyJS sub-language.
func BenchmarkFig02aImplicits(b *testing.B) { runFigure(b, bench.Fig2aImplicits) }

// BenchmarkFig02bConstructors regenerates Figure 2b: desugared versus
// dynamic constructors per engine.
func BenchmarkFig02bConstructors(b *testing.B) { runFigure(b, bench.Fig2bConstructors) }

// BenchmarkFig02cYieldInterval regenerates Figure 2c: time between yields,
// countdown versus sampling estimator.
func BenchmarkFig02cYieldInterval(b *testing.B) { runFigure(b, bench.Fig2cYieldInterval) }

// BenchmarkFig07Estimators regenerates Figure 7: interrupt interval μ±σ for
// the three estimators.
func BenchmarkFig07Estimators(b *testing.B) { runFigure(b, bench.Fig7Estimators) }

// BenchmarkFig10Languages regenerates Figure 10: slowdown distributions per
// language per platform.
func BenchmarkFig10Languages(b *testing.B) {
	runFigure(b, func(cfg bench.Config) (string, error) {
		s, _, err := bench.Fig10Languages(cfg)
		return s, err
	})
}

// BenchmarkFig11Strategies regenerates Figure 11: best continuation and
// constructor strategy per engine.
func BenchmarkFig11Strategies(b *testing.B) {
	runFigure(b, func(cfg bench.Config) (string, error) {
		s, _, err := bench.Fig11Strategies(cfg)
		return s, err
	})
}

// BenchmarkFig12Skulpt regenerates Figure 12: Stopify-compiled Python
// versus the Skulpt-like interpreter layer.
func BenchmarkFig12Skulpt(b *testing.B) { runFigure(b, bench.Fig12Skulpt) }

// BenchmarkFig13OctaneKraken regenerates Figure 13: Octane-like versus
// Kraken-like suites under full-JavaScript settings.
func BenchmarkFig13OctaneKraken(b *testing.B) { runFigure(b, bench.Fig13OctaneKraken) }

// BenchmarkFig14Pyret regenerates Figure 14: Pyret with Stopify versus
// classic Pyret's gas-counting runtime.
func BenchmarkFig14Pyret(b *testing.B) { runFigure(b, bench.Fig14Pyret) }

// BenchmarkFig15Native regenerates Figure 15: the browser-substrate-versus-
// native slowdown without Stopify.
func BenchmarkFig15Native(b *testing.B) { runFigure(b, bench.Fig15Native) }

// BenchmarkStrawmen regenerates §3's strawman comparison: checked-return
// versus CPS versus generators.
func BenchmarkStrawmen(b *testing.B) { runFigure(b, bench.Strawmen) }

// BenchmarkCodeSize regenerates §6.1's code-growth measurement.
func BenchmarkCodeSize(b *testing.B) { runFigure(b, bench.CodeSize) }

// BenchmarkAblationGuards measures the statement-grouping optimization
// against the paper's literal per-statement guards.
func BenchmarkAblationGuards(b *testing.B) { runFigure(b, bench.AblationGuards) }

// BenchmarkCompile measures the compiler itself on a representative input.
func BenchmarkCompile(b *testing.B) {
	src := `
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
function tri(n) { var t = 0; for (var i = 0; i <= n; i++) { t += i; } return t; }
console.log(fib(10), tri(100));
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}
