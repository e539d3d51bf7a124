package supervisor

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/rt"
)

// metrics is the supervisor's aggregate instrumentation: admission and
// completion counters plus two latency distributions — scheduling latency
// (how long a runnable guest waited for a worker; the fleet-level
// responsiveness number, bounded P99 = no starvation) and turn duration
// (how long a guest held a worker between yields, the multi-tenant analogue
// of the paper's Figure 2c time-between-yields).
type metrics struct {
	mu          sync.Mutex
	submitted   uint64
	rejected    uint64
	completed   uint64 // finished without error
	failed      uint64 // guest error (uncaught throw, step budget, stall)
	killed      uint64 // supervisor termination (kill, deadline, output cap, mem, shutdown)
	preemptions uint64
	steals      uint64 // guests run by a worker other than their home queue's
	stepsTotal  uint64

	// Per-cause kill counters (each also counted in killed), so an operator
	// can tell a fleet dying of deadlines from one dying of memory budgets.
	killDeadline uint64
	killOutput   uint64
	killMem      uint64
	killShutdown uint64
	killExplicit uint64 // external Guest.Kill (rt.ErrKilled or custom reason)

	// Engine faults: guests terminated by the worker's recover barrier
	// (ErrInternalFault). Neither completed, failed, nor killed — an engine
	// bug is nobody's policy. The most recent panic value and stack are
	// kept for diagnosis.
	internalFaults uint64
	lastFault      string
	lastFaultStack string

	// Residency limiter traffic: parks (guests serialized out of memory),
	// restores (realms rebuilt on touch), pins (park attempts refused by
	// the codec), total snapshot bytes produced, and admissions via
	// Supervisor.Restore from external blobs.
	parks         uint64
	restores      uint64
	parkPins      uint64
	parkPinKinds  map[string]uint64
	snapshotBytes uint64
	restoreAdmits uint64

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

func (m *metrics) park(blobLen int) {
	m.mu.Lock()
	m.parks++
	m.snapshotBytes += uint64(blobLen)
	m.mu.Unlock()
}

// parkPinned records a park attempt the codec refused, keyed by the
// PinError's coarse kind (snapshot.Pin* constants; "other" for
// non-pin failures). The per-kind split makes pin-set changes measurable:
// shrinking the set (wire v2 serializing bound functions and Dates) should
// empty the kinds it removed while leaving eval/task/host pins visible.
func (m *metrics) parkPinned(kind string) {
	m.mu.Lock()
	m.parkPins++
	if m.parkPinKinds == nil {
		m.parkPinKinds = make(map[string]uint64)
	}
	m.parkPinKinds[kind]++
	m.mu.Unlock()
}

func (m *metrics) restoreDone(d time.Duration) {
	m.mu.Lock()
	m.restores++
	m.restoreLat.add(d)
	m.mu.Unlock()
}

func (m *metrics) restoreAdmit() {
	m.mu.Lock()
	m.restoreAdmits++
	m.mu.Unlock()
}

// internalFault records one recovered engine panic.
func (m *metrics) internalFault(r interface{}, stack []byte) {
	m.mu.Lock()
	m.internalFaults++
	m.lastFault = fmt.Sprint(r)
	m.lastFaultStack = string(stack)
	m.mu.Unlock()
}

func (m *metrics) submit() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *metrics) preempt() {
	m.mu.Lock()
	m.preemptions++
	m.mu.Unlock()
}

func (m *metrics) schedLatency(d time.Duration) {
	m.mu.Lock()
	m.sched.add(d)
	m.windowAdd(time.Now(), d)
	m.mu.Unlock()
}

func (m *metrics) steal() {
	m.mu.Lock()
	m.steals++
	m.mu.Unlock()
}

func (m *metrics) turn(d time.Duration) {
	m.mu.Lock()
	m.turns.add(d)
	m.mu.Unlock()
}

func (m *metrics) finish(err error, steps uint64) {
	m.mu.Lock()
	switch {
	case err == nil:
		m.completed++
	case errors.Is(err, ErrInternalFault):
		// Counted by internalFault (which captured the stack); finish only
		// accounts the steps.
	case isSupervisorKill(err):
		m.killed++
		switch {
		case errors.Is(err, ErrDeadline):
			m.killDeadline++
		case errors.Is(err, ErrOutputLimit):
			m.killOutput++
		case errors.Is(err, interp.ErrMemLimit):
			m.killMem++
		case errors.Is(err, ErrShutdown):
			m.killShutdown++
		default:
			m.killExplicit++
		}
	default:
		m.failed++
	}
	m.stepsTotal += steps
	m.mu.Unlock()
}

// isSupervisorKill classifies terminations the supervisor (or an external
// controller) imposed, as opposed to errors the guest earned. The memory
// budget counts as a supervisor kill, like the output cap: both are policy
// limits enforced from outside, not errors the guest's own code raised.
func isSupervisorKill(err error) bool {
	switch err {
	case ErrDeadline, ErrOutputLimit, ErrShutdown:
		return true
	}
	return errors.Is(err, rt.ErrKilled) || errors.Is(err, interp.ErrMemLimit)
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
	Steals      uint64 `json:"steals"`
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
	active := s.pending
	queued := 0
	for i := range s.queues {
		queued += s.queues[i].depth()
	}
	resident := s.resident
	parked := s.parkedN

	m := &s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	return Metrics{
		Submitted:          m.submitted,
		Rejected:           m.rejected,
		Completed:          m.completed,
		Failed:             m.failed,
		Killed:             m.killed,
		Preemptions:        m.preemptions,
		Steals:             m.steals,
		StepsTotal:         m.stepsTotal,
		Active:             active,
		Queued:             queued,
		KilledDeadline:     m.killDeadline,
		KilledOutput:       m.killOutput,
		KilledMem:          m.killMem,
		KilledShutdown:     m.killShutdown,
		KilledExplicit:     m.killExplicit,
		InternalFaults:     m.internalFaults,
		LastFault:          m.lastFault,
		LastFaultStack:     m.lastFaultStack,
		ResidentGuests:     resident,
		ParkedGuests:       parked,
		Parks:              m.parks,
		Restores:           m.restores,
		ParkPins:           m.parkPins,
		ParkPinsByReason:   copyCounts(m.parkPinKinds),
		SnapshotBytesTotal: m.snapshotBytes,
		RestoreAdmits:      m.restoreAdmits,
		RestoreLatency:     m.restoreLat.summary(),
		SchedLatency:       m.sched.summary(),
		TurnDuration:       m.turns.summary(),
		Compile:            cs,
	}
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
