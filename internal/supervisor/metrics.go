package supervisor

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/core"
)

// metrics is the supervisor's aggregate instrumentation: the public Metrics
// value itself, whose counters are mutated in place under mu, plus the
// latency histograms its digests are read from — scheduling latency (how
// long a runnable guest waited for a worker; the fleet-level responsiveness
// number, bounded P99 = no starvation), turn duration (how long a guest held
// a worker between yields, the multi-tenant analogue of the paper's Figure
// 2c time-between-yields) and restore-on-touch latency. The gauges and
// digest fields of the held value stay zero; Supervisor.Metrics fills them
// in its copy.
type metrics struct {
	mu sync.Mutex
	Metrics

	sched      latencyHist
	turns      latencyHist
	restoreLat latencyHist

	// Windowed scheduling latency: a ring of fixed-width time buckets over
	// the supervisor's lifetime, so a sustained-load run sees P99 *over
	// time* — a latency cliff in minute 25 of a 30-minute run is invisible
	// in the whole-run digest above but unmissable in its window. A window
	// is allocated by its first sample; one nothing was scheduled in stays
	// nil.
	winStart time.Time
	winLen   time.Duration
	winBase  int // absolute index of windows[0] (ring has dropped winBase older buckets)
	windows  []*latencyHist

	// ring is the flight recorder (trace.go), under the same lock and on the
	// same clock as everything above.
	ring traceRing
}

// windowRingCap bounds how many windows are retained (oldest dropped).
const windowRingCap = 4096

func (m *metrics) initWindows(start time.Time, width time.Duration) {
	m.mu.Lock()
	m.winStart = start
	m.winLen = width
	m.mu.Unlock()
}

// windowAdd files one scheduling-latency sample into its time bucket.
// Caller holds m.mu.
func (m *metrics) windowAdd(now time.Time, d time.Duration) {
	if m.winLen <= 0 {
		return
	}
	idx := int(now.Sub(m.winStart) / m.winLen)
	if idx < m.winBase {
		idx = m.winBase // clock skew: file into the oldest retained bucket
	}
	for m.winBase+len(m.windows) <= idx {
		m.windows = append(m.windows, nil)
		if len(m.windows) > windowRingCap {
			drop := len(m.windows) - windowRingCap
			m.windows = m.windows[drop:]
			m.winBase += drop
		}
	}
	i := idx - m.winBase
	if m.windows[i] == nil {
		m.windows[i] = new(latencyHist)
	}
	m.windows[i].add(d)
}

// WindowSummary is one time slice of the windowed scheduling-latency
// digest: percentiles of how long runnable guests waited for a worker
// during [StartMs, StartMs+WidthMs) of the supervisor's life.
type WindowSummary struct {
	StartMs float64 `json:"start_ms"`
	WidthMs float64 `json:"width_ms"`
	Turns   int     `json:"turns"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
	Max     float64 `json:"max_ms"`
}

// Windows returns the retained windowed scheduling-latency digest, oldest
// first. Empty buckets (no turns scheduled in that slice) are included, so
// the series is contiguous in time.
func (s *Supervisor) Windows() []WindowSummary {
	m := &s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WindowSummary, len(m.windows))
	width := durMs(m.winLen)
	for i, h := range m.windows {
		var l LatencySummary
		if h != nil {
			l = h.summary()
		}
		out[i] = WindowSummary{
			StartMs: float64(m.winBase+i) * width,
			WidthMs: width,
			Turns:   l.Count,
			P50:     l.P50,
			P90:     l.P90,
			P99:     l.P99,
			Max:     l.Max,
		}
	}
	return out
}

// internalFault records one recovered engine panic: the one counter that
// moves outside record, because a stack trace does not belong in a ring.
func (m *metrics) internalFault(r interface{}, stack []byte) {
	m.mu.Lock()
	m.InternalFaults++
	m.LastFault = fmt.Sprint(r)
	m.LastFaultStack = string(stack)
	m.mu.Unlock()
}

// record is the supervisor's one instrumentation point: worker w's (w < 0: a
// control-plane goroutine's) lifecycle event ev, whose span at full
// resolution is d — a schedule's queue wait, a turn's or a restore's length,
// zero otherwise; record writes its microseconds into the event. Under the
// one metrics.mu it folds ev into the counters and histograms Metrics reads
// and appends it to the flight recorder's ring, stamped on the clock the
// windows are cut on, so /metrics is a fold of the events /trace shows. A
// caller whose event moves a gauge too (submit, reject, park, restore,
// finish) records under s.mu, so a scrape sees both move or neither. It
// allocates nothing, and with tracing off an event that moves no counter
// takes no lock.
func (s *Supervisor) record(w int, ev TraceEvent, d time.Duration) {
	m := &s.metrics
	switch ev.Type {
	case TraceSchedule:
		ev.WaitUs = d.Microseconds()
	case TraceTurn, TraceRestore:
		ev.DurUs = d.Microseconds()
	case TracePreempt, TracePause, TraceResume, TraceKill:
		if m.ring.buf == nil { // set once by New, before any event
			return
		}
	}
	ev.Worker = w
	m.mu.Lock()
	now := time.Now()
	switch ev.Type {
	case TraceSubmit:
		if ev.Bytes > 0 {
			m.RestoreAdmits++
		} else {
			m.Submitted++
		}
	case TraceReject:
		m.Rejected++
	case TraceSchedule:
		m.sched.add(d)
		m.windowAdd(now, d)
	case TraceTurn:
		m.turns.add(d)
		if ev.Cause == turnCauses[endPreempt] {
			m.Preemptions++
		}
	case TracePark:
		m.Parks++
		m.SnapshotBytesTotal += uint64(ev.Bytes)
	case TracePin:
		// Keyed by the PinError's coarse kind, so work that shrinks the pin
		// set shows up as kinds going to zero.
		m.ParkPins++
		if m.ParkPinsByReason == nil {
			m.ParkPinsByReason = make(map[string]uint64)
		}
		m.ParkPinsByReason[ev.Cause]++
	case TraceRestore:
		m.Restores++
		m.restoreLat.add(d)
	case TraceFinish:
		// One outcome, as outcomeCause named it. The memory budget and the
		// output cap count as kills, like a deadline: policy limits enforced
		// from outside, not errors the guest's own code raised. A fault was
		// counted by internalFault, which kept the stack.
		m.StepsTotal += ev.Steps
		switch ev.Cause {
		case "ok":
			m.Completed++
		case "fault":
		case "stalled", "error":
			m.Failed++
		default:
			m.Killed++
			switch ev.Cause {
			case "deadline":
				m.KilledDeadline++
			case "output":
				m.KilledOutput++
			case "mem":
				m.KilledMem++
			case "shutdown":
				m.KilledShutdown++
			default:
				m.KilledExplicit++
			}
		}
	}
	m.ring.add(ev, now.Sub(m.winStart))
	m.mu.Unlock()
}

// LatencySummary is the percentile digest of one distribution, in
// milliseconds.
type LatencySummary struct {
	Count int     `json:"count"`
	SumMs float64 `json:"sum_ms"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// Metrics is a point-in-time aggregate snapshot (Supervisor.Metrics).
type Metrics struct {
	Submitted   uint64 `json:"submitted"`
	Rejected    uint64 `json:"rejected"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Killed      uint64 `json:"killed"`
	Preemptions uint64 `json:"preemptions"`
	StepsTotal  uint64 `json:"steps_total"`
	Active      int    `json:"active"`
	Queued      int    `json:"queued"`

	// Per-cause breakdown of Killed.
	KilledDeadline uint64 `json:"killed_deadline"`
	KilledOutput   uint64 `json:"killed_output"`
	KilledMem      uint64 `json:"killed_mem"`
	KilledShutdown uint64 `json:"killed_shutdown"`
	KilledExplicit uint64 `json:"killed_explicit"`

	// Engine faults recovered by the worker barrier; LastFault and
	// LastFaultStack describe the most recent one.
	InternalFaults uint64 `json:"internal_faults"`
	LastFault      string `json:"last_fault,omitempty"`
	LastFaultStack string `json:"last_fault_stack,omitempty"`

	// Residency limiter: live realms vs parked snapshots right now, park /
	// restore traffic, and how long a restore-on-touch stalls a turn.
	ResidentGuests int    `json:"resident_guests"`
	ParkedGuests   int    `json:"parked_guests"`
	Parks          uint64 `json:"parks"`
	Restores       uint64 `json:"restores"`
	ParkPins       uint64 `json:"park_pins"`
	// ParkPinsByReason splits ParkPins by snapshot.PinError kind ("native",
	// "eval", "task", ...; "other" for non-pin snapshot failures), so
	// operators can see *why* guests stay resident and codec work that
	// shrinks the pin set shows up as kinds going to zero.
	ParkPinsByReason   map[string]uint64 `json:"park_pins_by_reason,omitempty"`
	SnapshotBytesTotal uint64            `json:"snapshot_bytes_total"`
	RestoreAdmits      uint64            `json:"restore_admits"`
	RestoreLatency     LatencySummary    `json:"restore_latency"`

	SchedLatency LatencySummary `json:"sched_latency"`
	TurnDuration LatencySummary `json:"turn_duration"`

	// Compile is process-wide, shared by every supervisor in the process:
	// what Submit and restore found in the compile memo, and how many
	// distinct preludes were ever compiled.
	Compile core.CompileStats `json:"compile"`
}

// Metrics snapshots the aggregate counters and latency digests. The whole
// snapshot is taken inside one s.mu critical section with metrics.mu nested
// (the lock order everywhere is g.mu → s.mu → metrics.mu), so the gauges
// and the counters are mutually consistent: a park moves resident/parked
// and bumps the park counter under the same s.mu hold, and a scrape can
// never observe one without the other.
func (s *Supervisor) Metrics() Metrics {
	cs := core.ReadCompileStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.Metrics
	out.Active = s.pending
	out.Queued = s.queue.depth()
	out.ResidentGuests = len(s.residents)
	out.ParkedGuests = s.parkedN
	out.ParkPinsByReason = copyCounts(m.ParkPinsByReason)
	out.RestoreLatency = m.restoreLat.summary()
	out.SchedLatency = m.sched.summary()
	out.TurnDuration = m.turns.summary()
	out.Compile = cs
	return out
}

// copyCounts snapshots a counter map (nil in, nil out) so Metrics values
// stay immutable after return.
func copyCounts(src map[string]uint64) map[string]uint64 {
	if len(src) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// latencyHist is the supervisor's one latency digest: a fixed-size
// log-bucket histogram of durations. Each octave of nanoseconds from
// 2^histMinExp (≈0.5 µs) up to 2^histMaxExp (≈137 s) is cut into histSub
// equal buckets, so a quantile — read back as its bucket's midpoint — is
// within 1/(2·histSub) ≈ 3.1 % of the sample at that rank; one bucket below
// the range and one above it catch the rest (the one above reads back as max).
// count, sum and max are exact, and adding a sample allocates nothing. The
// whole-run digests, every window of the ring, and both metric expositions
// read the same type through the same summary(). Callers hold metrics.mu.
type latencyHist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    time.Duration
	max    time.Duration
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histMinExp  = 9
	histMaxExp  = 37
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
)

// histBucket maps a duration to its bucket: 0 below the range,
// histBuckets-1 above it, else octave·histSub + the histSubBits bits that
// follow the leading one.
func histBucket(d time.Duration) int {
	if d < 1<<histMinExp {
		return 0
	}
	exp := bits.Len64(uint64(d)) - 1
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(d>>(exp-histSubBits)) & (histSub - 1)
	return (exp-histMinExp)*histSub + sub + 1
}

// histMid is the midpoint of bucket i (of the underflow bucket's [0,
// 2^histMinExp) for i == 0); the overflow bucket has none.
func histMid(i int) time.Duration {
	if i == 0 {
		return 1 << (histMinExp - 1)
	}
	exp := (i-1)/histSub + histMinExp
	width := time.Duration(1) << (exp - histSubBits)
	return 1<<exp + time.Duration((i-1)%histSub)*width + width/2
}

func (h *latencyHist) add(d time.Duration) {
	h.counts[histBucket(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile in milliseconds: the midpoint of the
// bucket holding the sample of rank ⌊q·(count-1)⌋, never above max.
func (h *latencyHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count-1))
	var seen uint64
	for i, c := range h.counts[:histBuckets-1] {
		seen += c
		if seen > rank {
			return durMs(min(histMid(i), h.max))
		}
	}
	return durMs(h.max)
}

func (h *latencyHist) summary() LatencySummary {
	return LatencySummary{
		Count: int(h.count),
		SumMs: durMs(h.sum),
		P50:   h.quantile(0.50),
		P90:   h.quantile(0.90),
		P99:   h.quantile(0.99),
		Max:   durMs(h.max),
	}
}
