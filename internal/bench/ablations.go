package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/langs"
	"repro/internal/stats"
)

// AblationGuards measures the statement-grouping optimization: the paper's
// K⟦·⟧ wraps every statement in its own `if (normal)` (Figure 4a); this
// implementation groups maximal label-free runs under one guard. Both are
// semantically identical; the ablation quantifies the saving.
func AblationGuards(cfg Config) (string, error) {
	eng := engine.Chrome()
	py := langs.Python()
	t := newTable("Ablation — per-statement guards (paper-literal) vs grouped guards")
	t.row("%-18s %12s %12s %8s", "benchmark", "grouped", "per-stmt", "ratio")
	var ratios []float64
	for _, b := range pick(cfg, py.Benchmarks, 3) {
		grouped := py.Opts(baseOpts())
		mg, err := slowdown(b.Name, b.Source, grouped, eng, cfg)
		if err != nil {
			return "", err
		}
		literal := py.Opts(baseOpts())
		literal.PerStatementGuards = true
		ml, err := slowdown(b.Name, b.Source, literal, eng, cfg)
		if err != nil {
			return "", err
		}
		r := ml.Slowdown / mg.Slowdown
		ratios = append(ratios, r)
		t.row("%-18s %11.1fx %11.1fx %7.2f", b.Name, mg.Slowdown, ml.Slowdown, r)
	}
	t.row("grouping buys a mean %.2fx reduction in instrumentation overhead", stats.Mean(ratios))
	return t.String(), nil
}

// AblationSampleMs varies the approx estimator's clock-sampling period t
// (§5.1: t trades clock-read cost against estimate accuracy).
func AblationSampleMs(cfg Config) (string, error) {
	eng := engine.Chrome()
	py := langs.Python()
	delta := 100.0
	reps := 40
	if cfg.Quick {
		delta = 5
		reps = 4
	}
	t := newTable(fmt.Sprintf("Ablation — approx estimator sampling period t (δ=%.0fms)", delta))
	t.row("%-10s %16s %14s", "t (ms)", "interval μ±σ", "slowdown")
	b := py.Benchmarks[3] // fib
	src := loopify(b.Source, reps)
	raw, err := timeRaw(src, eng, cfg.Repeats)
	if err != nil {
		return "", err
	}
	for _, sample := range []float64{5, 25, 100} {
		o := py.Opts(baseOpts())
		o.YieldIntervalMs = delta
		o.SampleMs = sample
		gaps, err := yieldIntervals(src, o, eng)
		if err != nil {
			return "", err
		}
		stopMs, err := timeStopified(src, o, eng, cfg.Repeats)
		if err != nil {
			return "", err
		}
		cell := "(no yields)"
		if len(gaps) > 0 {
			cell = fmt.Sprintf("%6.1f ± %5.1f", stats.Mean(gaps), stats.Stddev(gaps))
		}
		t.row("%-10.0f %16s %13.1fx", sample, cell, stopMs/raw)
	}
	t.row("smaller t tracks rate changes faster but reads the clock more often (§5.1)")
	return t.String(), nil
}

// AblationRestoreSegment varies the segmented-restore chunk size for
// deep-stack workloads (§5.2): segments near the deep limit cause
// immediate re-capture after restore; tiny segments pay excessive restore
// round-trips. Segment 0 is the runtime's default.
func AblationRestoreSegment(cfg Config) (string, error) {
	eng := &engine.Profile{Name: "shallow", Speed: 1, TryCost: 1, ThrowCost: 8,
		CallCost: 2, NewCost: 30, ObjectCreateCost: 20, PropCost: 1, MaxStack: 500}
	depth := 20000
	if cfg.Quick {
		depth = 4000
	}
	src := fmt.Sprintf(`
function sum(n) { if (n === 0) { return 0; } return n + sum(n - 1); }
console.log(sum(%d));`, depth)
	t := newTable(fmt.Sprintf("Ablation — restore segment size (deep recursion %d on a %d-frame engine)", depth, eng.MaxStack))
	t.row("%-12s %10s %10s", "segment", "time", "restores")
	for _, seg := range []int{4, 0, eng.MaxStack / 16, eng.MaxStack / 8, eng.MaxStack / 5} {
		o := core.Defaults()
		o.YieldIntervalMs = 0
		o.DeepStacks = true
		o.RestoreSegment = seg
		c, err := core.Compile(src, o)
		if err != nil {
			return "", err
		}
		run, err := c.NewRun(core.RunConfig{Engine: eng, Clock: eventloop.NewVirtualClock(), Seed: 1})
		if err != nil {
			return "", err
		}
		start := time.Now()
		if err := run.RunToCompletion(); err != nil {
			return "", fmt.Errorf("segment %d: %w", seg, err)
		}
		t.row("%-12d %8.0fms %10d", seg, float64(time.Since(start))/1e6, run.RT.Restores)
	}
	t.row("0 is the default segment; too-large segments leave no headroom below the deep limit and thrash")
	return t.String(), nil
}
