package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/langs"
)

// TestEveryExperimentRuns smoke-tests each figure at quick settings; the
// full-size runs live in cmd/stopibench.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	cfg := QuickConfig()
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("figure %s: %v", e.ID, err)
			}
			if !strings.Contains(out, "==") {
				t.Fatalf("figure %s produced no table:\n%s", e.ID, out)
			}
		})
	}
}

func TestSlowdownMeasurement(t *testing.T) {
	// Each side is a median of five sub-millisecond runs: one run a side
	// read below 1 whenever a collection or a busy neighbour landed on the
	// raw one.
	cfg := QuickConfig()
	cfg.Repeats = 5
	m, err := slowdown("fib", langs.Python().Benchmarks[3].Source,
		langs.Python().Opts(baseOpts()), engine.Chrome(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slowdown <= 1 {
		t.Errorf("instrumentation cannot be free: slowdown %.2f", m.Slowdown)
	}
	if m.RawMs <= 0 || m.StopMs <= 0 {
		t.Errorf("timings must be positive: %+v", m)
	}
}

func TestVerifyCatchesDivergence(t *testing.T) {
	// A program whose output depends on yielding would diverge; verifySame
	// must catch plain mismatches. Simulate by comparing against a
	// different program through the raw path: use an args-sensitive program
	// under a sub-language that cannot support it.
	src := `
function f(a) { return arguments.length; }
console.log(f(1, 2, 3));`
	// args=none restores via formals only; a continuation captured inside f
	// would change the count. verifySame runs without captures here, so
	// this passes — the point is just that verifySame runs both sides.
	if err := verifySame(src, core.Defaults(), engine.Uniform()); err != nil {
		t.Fatalf("verifySame: %v", err)
	}
}

func TestBestStrategyMatchesFig11(t *testing.T) {
	cont, ctor := BestStrategy(engine.Edge())
	if cont != "checked" || ctor != "wrapped" {
		t.Errorf("edge should pick checked+wrapped, got %s+%s", cont, ctor)
	}
	cont, ctor = BestStrategy(engine.Chrome())
	if cont != "exceptional" || ctor != "direct" {
		t.Errorf("chrome should pick exceptional+direct, got %s+%s", cont, ctor)
	}
}

func TestLoopify(t *testing.T) {
	src := loopify(`console.log("x");`, 3)
	out, err := core.RunRaw(src, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "x\n") != 3 {
		t.Errorf("loopify should repeat the body: %q", out)
	}
}
