package supervisor

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Prometheus text exposition (version 0.0.4) of the supervisor's metrics.
// Every counter and gauge in Metrics appears under a stable, documented
// name (promFamilies below; DESIGN_supervisor.md "Observability" documents
// it). The JSON shape stays the default on /metrics — this is the
// ?format=prom rendering.

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

// promFamilies is every series a scrape derives from Metrics, in scrape
// order: the one list WriteProm walks, so a metric added here is exposed, and
// TestPromCoversMetrics fails for a Metrics field that is not here. What
// value returns picks the rendering: a uint64 is a counter sample (rows
// sharing a name are one family, told apart by label), a float64 a gauge, a
// LatencySummary a summary with quantile labels and the exact running
// _sum/_count, a map one counter sample per key under the label named.
var promFamilies = []struct {
	name, kind, help string
	label            string
	value            func(m *Metrics) any
}{
	{"stopify_guests_submitted_total", "counter", "Guests admitted via Submit or Restore.", "", func(m *Metrics) any { return m.Submitted + m.RestoreAdmits }},
	{"stopify_guests_rejected_total", "counter", "Admissions refused by the MaxPending backpressure bound.", "", func(m *Metrics) any { return m.Rejected }},
	{"stopify_guests_completed_total", "counter", "Guests that finished without error.", "", func(m *Metrics) any { return m.Completed }},
	{"stopify_guests_failed_total", "counter", "Guests that finished with a guest-earned error (uncaught throw, step budget, stall).", "", func(m *Metrics) any { return m.Failed }},
	{"stopify_guests_killed_total", "counter", "Guests terminated by supervisor policy or external kill.", "", func(m *Metrics) any { return m.Killed }},

	{"stopify_kills_total", "counter", "Policy terminations by cause.", `cause="deadline"`, func(m *Metrics) any { return m.KilledDeadline }},
	{"stopify_kills_total", "counter", "", `cause="output"`, func(m *Metrics) any { return m.KilledOutput }},
	{"stopify_kills_total", "counter", "", `cause="mem"`, func(m *Metrics) any { return m.KilledMem }},
	{"stopify_kills_total", "counter", "", `cause="shutdown"`, func(m *Metrics) any { return m.KilledShutdown }},
	{"stopify_kills_total", "counter", "", `cause="explicit"`, func(m *Metrics) any { return m.KilledExplicit }},

	{"stopify_preemptions_total", "counter", "Quantum-expiry preemptions (guest parked by the scheduler and requeued).", "", func(m *Metrics) any { return m.Preemptions }},
	{"stopify_steps_total", "counter", "Guest statements executed across all finished guests.", "", func(m *Metrics) any { return m.StepsTotal }},
	{"stopify_internal_faults_total", "counter", "Engine panics recovered by the worker barrier (one quarantined guest each).", "", func(m *Metrics) any { return m.InternalFaults }},

	{"stopify_guests_active", "gauge", "Admitted, unfinished guests right now.", "", func(m *Metrics) any { return float64(m.Active) }},
	{"stopify_guests_queued", "gauge", "Guests waiting in run queues right now.", "", func(m *Metrics) any { return float64(m.Queued) }},
	{"stopify_guests_resident", "gauge", "Unfinished guests holding a live realm in memory.", "", func(m *Metrics) any { return float64(m.ResidentGuests) }},
	{"stopify_guests_parked", "gauge", "Unfinished guests whose realm is a serialized snapshot.", "", func(m *Metrics) any { return float64(m.ParkedGuests) }},

	{"stopify_parks_total", "counter", "Idle guests serialized out of memory by the residency limiter.", "", func(m *Metrics) any { return m.Parks }},
	{"stopify_restores_total", "counter", "Parked guests whose realm was rebuilt on touch.", "", func(m *Metrics) any { return m.Restores }},
	{"stopify_restore_admits_total", "counter", "Guests admitted from external snapshot blobs (Supervisor.Restore).", "", func(m *Metrics) any { return m.RestoreAdmits }},
	{"stopify_snapshot_bytes_total", "counter", "Cumulative bytes of park snapshots produced.", "", func(m *Metrics) any { return m.SnapshotBytesTotal }},

	{"stopify_compile_memo_hits_total", "counter", "Submissions and restores that found their program in the process-wide compile memo.", "", func(m *Metrics) any { return m.Compile.MemoHits }},
	{"stopify_compile_memo_misses_total", "counter", "Submissions and restores that had to compile (including sources that then failed to).", "", func(m *Metrics) any { return m.Compile.MemoMisses }},
	{"stopify_compile_memo_evictions_total", "counter", "Compiled programs dropped from the memo by its entry or source-byte bound.", "", func(m *Metrics) any { return m.Compile.MemoEvictions }},
	{"stopify_prelude_compiles_total", "counter", "Distinct runtime preludes compiled (one per prelude-affecting option set, ever).", "", func(m *Metrics) any { return m.Compile.PreludeCompiles }},

	{"stopify_park_pins_total", "counter", "Park attempts refused by the snapshot codec, by pin kind.", "reason", func(m *Metrics) any { return m.ParkPinsByReason }},

	{"stopify_sched_latency_ms", "summary", "How long runnable guests waited for a worker, in milliseconds (whole run).", "", func(m *Metrics) any { return m.SchedLatency }},
	{"stopify_turn_duration_ms", "summary", "How long guests held a worker per scheduling turn, in milliseconds.", "", func(m *Metrics) any { return m.TurnDuration }},
	{"stopify_restore_latency_ms", "summary", "Restore-on-touch realm rebuild latency, in milliseconds.", "", func(m *Metrics) any { return m.RestoreLatency }},
	{"stopify_sched_latency_max_ms", "gauge", "Worst scheduling latency of the whole run.", "", func(m *Metrics) any { return m.SchedLatency.Max }},
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promF(v))
}

// WriteProm renders one scrape. The Metrics value is a single consistent
// snapshot (Supervisor.Metrics takes it under one lock acquisition);
// windows may be nil to skip the windowed-latency gauges.
func WriteProm(w io.Writer, m Metrics, windows []WindowSummary) {
	for i, f := range promFamilies {
		if i == 0 || promFamilies[i-1].name != f.name {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		}
		series := f.name
		if f.label != "" {
			series += "{" + f.label + "}"
		}
		switch v := f.value(&m).(type) {
		case uint64:
			fmt.Fprintf(w, "%s %d\n", series, v)
		case float64:
			fmt.Fprintf(w, "%s %s\n", series, promF(v))
		case LatencySummary:
			for _, q := range promQuantiles {
				fmt.Fprintf(w, "%s{quantile=%q} %s\n", f.name, q.label, promF(q.pick(v)))
			}
			fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", f.name, promF(v.SumMs), f.name, v.Count)
		case map[string]uint64:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", f.name, f.label, k, v[k])
			}
		}
	}

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
