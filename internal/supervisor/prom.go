package supervisor

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Prometheus text exposition (version 0.0.4) of the supervisor's metrics.
// Every counter and gauge in Metrics appears under a stable, documented
// name (the table lives in DESIGN_supervisor.md "Observability"); the
// latency digests render as summaries with quantile labels plus the exact
// running _sum/_count the histograms carry. The JSON shape stays the
// default on /metrics — this is the ?format=prom rendering.

// promQuantiles are the summary quantiles exposed for each latency digest.
var promQuantiles = []struct {
	label string
	pick  func(LatencySummary) float64
}{
	{"0.5", func(l LatencySummary) float64 { return l.P50 }},
	{"0.9", func(l LatencySummary) float64 { return l.P90 }},
	{"0.99", func(l LatencySummary) float64 { return l.P99 }},
}

func promF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func promCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promF(v))
}

func promSummary(w io.Writer, name, help string, l LatencySummary) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, q := range promQuantiles {
		fmt.Fprintf(w, "%s{quantile=%q} %s\n", name, q.label, promF(q.pick(l)))
	}
	fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promF(l.SumMs), name, l.Count)
}

// WriteProm renders one scrape. The Metrics value is a single consistent
// snapshot (Supervisor.Metrics takes it under one lock acquisition);
// windows may be nil to skip the windowed-latency gauges.
func WriteProm(w io.Writer, m Metrics, windows []WindowSummary) {
	promCounter(w, "stopify_guests_submitted_total", "Guests admitted via Submit or Restore.", m.Submitted+m.RestoreAdmits)
	promCounter(w, "stopify_guests_rejected_total", "Admissions refused by the MaxPending backpressure bound.", m.Rejected)
	promCounter(w, "stopify_guests_completed_total", "Guests that finished without error.", m.Completed)
	promCounter(w, "stopify_guests_failed_total", "Guests that finished with a guest-earned error (uncaught throw, step budget, stall).", m.Failed)
	promCounter(w, "stopify_guests_killed_total", "Guests terminated by supervisor policy or external kill.", m.Killed)

	fmt.Fprintf(w, "# HELP stopify_kills_total Policy terminations by cause.\n# TYPE stopify_kills_total counter\n")
	for _, kv := range []struct {
		cause string
		n     uint64
	}{
		{"deadline", m.KilledDeadline},
		{"output", m.KilledOutput},
		{"mem", m.KilledMem},
		{"shutdown", m.KilledShutdown},
		{"explicit", m.KilledExplicit},
	} {
		fmt.Fprintf(w, "stopify_kills_total{cause=%q} %d\n", kv.cause, kv.n)
	}

	promCounter(w, "stopify_preemptions_total", "Quantum-expiry preemptions (guest parked by the scheduler and requeued).", m.Preemptions)
	promCounter(w, "stopify_steps_total", "Guest statements executed across all finished guests.", m.StepsTotal)
	promCounter(w, "stopify_internal_faults_total", "Engine panics recovered by the worker barrier (one quarantined guest each).", m.InternalFaults)

	promGauge(w, "stopify_guests_active", "Admitted, unfinished guests right now.", float64(m.Active))
	promGauge(w, "stopify_guests_queued", "Guests waiting in run queues right now.", float64(m.Queued))
	promGauge(w, "stopify_guests_resident", "Unfinished guests holding a live realm in memory.", float64(m.ResidentGuests))
	promGauge(w, "stopify_guests_parked", "Unfinished guests whose realm is a serialized snapshot.", float64(m.ParkedGuests))

	promCounter(w, "stopify_parks_total", "Idle guests serialized out of memory by the residency limiter.", m.Parks)
	promCounter(w, "stopify_restores_total", "Parked guests whose realm was rebuilt on touch.", m.Restores)
	promCounter(w, "stopify_restore_admits_total", "Guests admitted from external snapshot blobs (Supervisor.Restore).", m.RestoreAdmits)
	promCounter(w, "stopify_snapshot_bytes_total", "Cumulative bytes of park snapshots produced.", m.SnapshotBytesTotal)

	promCounter(w, "stopify_compile_memo_hits_total", "Submissions and restores that found their program in the process-wide compile memo.", m.Compile.MemoHits)
	promCounter(w, "stopify_compile_memo_misses_total", "Submissions and restores that had to compile (including sources that then failed to).", m.Compile.MemoMisses)
	promCounter(w, "stopify_compile_memo_evictions_total", "Compiled programs dropped from the memo by its entry or source-byte bound.", m.Compile.MemoEvictions)
	promCounter(w, "stopify_prelude_compiles_total", "Distinct runtime preludes compiled (one per prelude-affecting option set, ever).", m.Compile.PreludeCompiles)

	fmt.Fprintf(w, "# HELP stopify_park_pins_total Park attempts refused by the snapshot codec, by pin kind.\n# TYPE stopify_park_pins_total counter\n")
	reasons := make([]string, 0, len(m.ParkPinsByReason))
	for k := range m.ParkPinsByReason {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(w, "stopify_park_pins_total{reason=%q} %d\n", k, m.ParkPinsByReason[k])
	}

	promSummary(w, "stopify_sched_latency_ms", "How long runnable guests waited for a worker, in milliseconds (whole run).", m.SchedLatency)
	promSummary(w, "stopify_turn_duration_ms", "How long guests held a worker per scheduling turn, in milliseconds.", m.TurnDuration)
	promSummary(w, "stopify_restore_latency_ms", "Restore-on-touch realm rebuild latency, in milliseconds.", m.RestoreLatency)
	promGauge(w, "stopify_sched_latency_max_ms", "Worst scheduling latency of the whole run.", m.SchedLatency.Max)

	// The newest *complete* window of the over-time digest: the last bucket
	// is still filling, so expose the one before it (matching how the load
	// harness reads the series).
	if len(windows) >= 2 {
		win := windows[len(windows)-2]
		promGauge(w, "stopify_window_sched_latency_p50_ms", "P50 scheduling latency of the newest complete metrics window.", win.P50)
		promGauge(w, "stopify_window_sched_latency_p99_ms", "P99 scheduling latency of the newest complete metrics window.", win.P99)
		promGauge(w, "stopify_window_turns", "Scheduling turns in the newest complete metrics window.", float64(win.Turns))
	}
}
