package bench

import (
	"repro/internal/engine"
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
