package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// layerMetric is one row of the layer table that BENCHMARK.json lists: a
// number every workload's traced run reports.
type layerMetric struct {
	name, unit, better string
}

var layerMetrics = []layerMetric{
	{"supervisor.guest_ms.hot", "ms", "lower"},
	{"supervisor.guest_ms.unique", "ms", "lower"},
	{"supervisor.submit_ms", "ms", "lower"},
	{"supervisor.queue_wait_ms", "ms", "lower"},
	{"supervisor.overhead_ms", "ms", "lower"},
	{"supervisor.epoch_guest_ms", "ms", "lower"},
	{"supervisor.preempt_tax", "ratio", "lower"},
	{"supervisor.preemptions", "count", "lower"},
	{"supervisor.quanta_per_guest", "count", "lower"},
	{"supervisor.turn_ms_p50", "ms", "lower"},
	{"supervisor.sched_ms_p50", "ms", "lower"},
	{"supervisor.sched_ms_p99", "ms", "lower"},
	{"supervisor.probe_ms_p50", "ms", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.compile_prelude_ms", "ms", "lower"},
	{"parser.parse_ms", "ms", "lower"},
	{"desugar.apply_ms", "ms", "lower"},
	{"anf.normalize_ms", "ms", "lower"},
	{"boxes.box_ms", "ms", "lower"},
	{"instrument.apply_ms", "ms", "lower"},
	{"resolve.program_ms", "ms", "lower"},
	{"printer.print_ms", "ms", "lower"},
	{"core.compile_unexplained_ms", "ms", "lower"},
	{"core.code_growth", "ratio", "lower"},
	{"core.newrun_ms", "ms", "lower"},
	{"core.guest_ms", "ms", "lower"},
	{"core.raw_ms", "ms", "lower"},
	{"interp.run_ms", "ms", "lower"},
	{"interp.ns_per_step", "ns", "lower"},
	{"interp.steps", "count", "lower"},
	{"interp.alloc_kb_per_run", "KB", "lower"},
	{"rt.preemptions", "count", "lower"},
	{"rt.pause_resume_us", "us", "lower"},
	{"rt.stop_us", "us", "lower"},
	{"rt.restep_ratio", "ratio", "lower"},
	{"migrate.guest_ms", "ms", "lower"},
	{"snapshot.hops", "count", "lower"},
	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.encode_mb_s", "MB/s", "higher"},
	{"snapshot.blob_kb", "KB", "lower"},
	{"snapshot.pins", "count", "lower"},
	{"core.restore_ms", "ms", "lower"},
	{"core.restore_mb_s", "MB/s", "higher"},
	{"path.guest_ms", "ms", "lower"},
	{"path.unexplained_ms", "ms", "lower"},
	{"workload.guests_per_s", "1/s", "higher"},
	{"process.cpu_ms_per_guest", "ms", "lower"},
	{"process.rss_mb_peak", "MB", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// tableOnly are printed after the listed metrics on the runs that have them:
// the HTTP rows on workloads of default-options guests, an engine's row when
// the build has the engine.
var tableOnly = []layerMetric{
	{"stopifyd.ready_ms", "ms", "lower"},
	{"stopifyd.request_ms", "ms", "lower"},
	{"stopifyd.http_overhead_ms", "ms", "lower"},
	{"interp.run_ms.tree", "ms", "lower"},
	{"interp.run_ms.bytecode", "ms", "lower"},
}

// runTraced is the -trace 1 run. It repeats the workload at a fifth of its
// rounds twice over, interleaved round by round — once bare, once with
// spans around every call into a layer — which gives the trace file and
// what recording it costs; then runs the probe suite for the layer table.
// End-to-end metrics never come from here.
func runTraced(w *workload, cfg config, rounds int) (result, error) {
	r, err := w.openSeed(cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	tracedRounds, layerRounds := rounds/5, probeRounds
	if cfg.quick {
		tracedRounds, layerRounds = 2, 2
	}

	r.round(newRecorder(r), nil)
	bare, traced, tr := newRecorder(r), newRecorder(r), newTracer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := processUsage()
	for i := 0; i < tracedRounds; i++ {
		r.round(bare, nil)
		r.round(traced, tr)
	}
	cpu1, rss := processUsage()
	runtime.ReadMemStats(&ms1)
	tracePath := filepath.Join(outDir, w.name+".trace.json")
	if err := tr.writeChrome(tracePath); err != nil {
		return result{}, fmt.Errorf("writing the trace: %w", err)
	}

	m, probed, err := probeLayers(w, r, layerRounds)
	if err != nil {
		return result{}, err
	}
	bareGuestMs, bareGuestsPerS, _ := bare.timings()
	tracedGuestMs, _, _ := traced.timings()
	m["workload.guests_per_s"] = bareGuestsPerS
	m["trace.overhead"] = tracedGuestMs / bareGuestMs
	m["process.cpu_ms_per_guest"] = ms(cpu1-cpu0) / float64(bare.guests+traced.guests)
	m["process.rss_mb_peak"] = rss
	m["process.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["process.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	// The reconciliation: the guest's time along this workload's path
	// against the layers it should be made of.
	m["path.guest_ms"] = m[w.path]
	explained := 0.0
	for _, t := range w.terms {
		explained += t.value(m)
	}
	m["path.unexplained_ms"] = m["path.guest_ms"] - explained

	ops := bare.ops + traced.ops + probed.ops
	failed := bare.failed + traced.failed + probed.failed
	tablePath := filepath.Join(outDir, w.name+".layers.txt")
	table, err := os.Create(tablePath)
	if err != nil {
		return result{}, err
	}
	out := io.MultiWriter(os.Stdout, table)
	fmt.Fprintf(out, "workload %s  seed %d  layer table over %d probe guests, %d rounds (trace: %s)\n",
		w.name, cfg.seed, len(r.probes()), layerRounds, tracePath)
	for _, l := range append(append([]layerMetric(nil), layerMetrics...), tableOnly...) {
		if v, ok := m[l.name]; ok {
			fmt.Fprintf(out, "  %-30s %14.4f %s\n", l.name, v, l.unit)
		}
	}
	fmt.Fprintf(out, "spans of the traced workload run (%d rounds):\n", tracedRounds)
	for _, st := range tr.stats() {
		fmt.Fprintf(out, "  %-30s %8d spans %12.1f ms total %12.1f ms self\n", st.name, st.count, st.totalMs, st.selfMs)
	}
	fmt.Fprintf(out, "reconciliation: path.guest_ms = %s = %.4f ms\n", w.path, m["path.guest_ms"])
	for _, t := range w.terms {
		fmt.Fprintf(out, "  %-44s %10.4f ms %5.1f%%\n", t.String(), t.value(m), 100*t.value(m)/m["path.guest_ms"])
	}
	fmt.Fprintf(out, "  %-44s %10.4f ms %5.1f%%\n", "path.unexplained_ms", m["path.unexplained_ms"], 100*m["path.unexplained_ms"]/m["path.guest_ms"])
	fmt.Fprintf(out, "  %-30s %14d\n  %-30s %14d\n", "ops", ops, "failed", failed)
	for _, rec := range []*recorder{bare, traced, probed} {
		if rec.failed > 0 {
			fmt.Fprintf(out, "  first failure: %s\n", rec.firstFailure)
		}
	}
	if err := table.Close(); err != nil {
		return result{}, err
	}

	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
	for _, l := range layerMetrics {
		res.Metrics[l.name] = metric{m[l.name], l.unit}
	}
	return res, nil
}

// value is the term's contribution to a guest's time, in milliseconds.
func (t term) value(m map[string]float64) float64 {
	v := m[t.metric]
	if t.times != "" {
		v *= m[t.times]
	}
	if t.scale != 0 {
		v *= t.scale
	}
	return v
}

func (t term) String() string {
	if t.times == "" {
		return t.metric
	}
	return t.metric + " x " + t.times
}
