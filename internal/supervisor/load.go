package supervisor

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
)

// The sustained-load target (stopibench -supervisor -arrival-rate=R
// -duration=D): an open-loop generator pushes guests at the fleet at a rate
// the fleet does not control — Poisson arrivals — while a churn driver
// pauses, resumes, and kills random live tenants the whole time. MaxResident
// is deliberately small, so every pause and every sleeping tenant routes
// through the snapshot park/restore machinery on the hot path. The result is
// windowed: P50/P90/P99 scheduling latency per time bucket over the run,
// because a closed-loop batch number cannot see a latency cliff that builds
// up under steady-state queueing, and a whole-run percentile averages the
// cliff away.

const (
	// loadWorkers and loadQuantum size the fleet under load.
	loadWorkers = 4
	loadQuantum = 2000
	// loadSeed drives arrival spacing and churn targeting.
	loadSeed = 1
	// Every hostileEvery-th arrival is an infinite loop that gets
	// hostileDeadline to live.
	hostileEvery    = 100
	hostileDeadline = 200 * time.Millisecond
	// Each churnTick the churn driver pauses one random live guest (resumed
	// 100–300 ms later), and every churnKillEvery-th tick it kills one
	// instead.
	churnTick      = 10 * time.Millisecond
	churnKillEvery = 8
	// drainBudget bounds the post-generation drain; guests still unfinished
	// after it count as errors.
	drainBudget = 60 * time.Second
)

// minWindowTurns is how many scheduling turns a window needs before its P99
// counts toward WorstWindowP99 — the startup and drain-tail buckets with a
// handful of samples would otherwise dominate the gate with noise.
const minWindowTurns = 25

// LoadConfig sizes a sustained open-loop load run.
type LoadConfig struct {
	// ArrivalRate is the mean guest arrival rate, guests/sec. Default 200.
	ArrivalRate float64 `json:"arrival_rate"`
	// Duration is the generation period; after it the generator stops and
	// the run drains. Default 10s.
	Duration time.Duration `json:"duration_ns"`
	// MaxResident bounds live realms; 0 picks loadWorkers*8 (small on
	// purpose — the harness wants park/restore on the hot path), negative
	// disables.
	MaxResident int `json:"max_resident"`
	// ProfileEvery arms the guest-level sampling profiler in every guest
	// (statement period); 0 leaves it off. The per-tenant folded stacks go
	// to ProfileOut.
	ProfileEvery uint64 `json:"profile_every,omitempty"`
	// TraceOut, when set, writes the run's flight-recorder history as a
	// Chrome trace-event JSON file (load it in about://tracing) after the
	// drain — the post-mortem artifact every SLO-gate run leaves behind.
	TraceOut string `json:"trace_out,omitempty"`
	// ProfileOut, when set, writes every tenant's folded-stack profile
	// (lines prefixed guest<id>;) to one flamegraph-ready file. Requires
	// ProfileEvery.
	ProfileOut string `json:"profile_out,omitempty"`
}

func (c *LoadConfig) normalize() {
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 200
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.MaxResident == 0 {
		c.MaxResident = loadWorkers * 8
	}
	if c.MaxResident < 0 {
		c.MaxResident = 0 // unbounded
	}
}

// LoadResult is one sustained-load measurement. Sched/Turn are whole-run
// digests; Windows is the over-time view the SLO gate reads.
type LoadResult struct {
	Config LoadConfig `json:"config"`
	WallMs float64    `json:"wall_ms"` // generation + drain
	GenMs  float64    `json:"gen_ms"`  // generation period actually used

	Arrivals int `json:"arrivals"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`

	ChurnPauses  int `json:"churn_pauses"`
	ChurnResumes int `json:"churn_resumes"`
	ChurnKills   int `json:"churn_kills"`

	Completed uint64 `json:"completed"`
	Killed    uint64 `json:"killed"`
	Failed    uint64 `json:"failed"`
	// Unexpected counts guests whose outcome contradicts their profile:
	// wrong output, an error nobody asked for, a hostile that outlived its
	// deadline. Zero is the only acceptable value on a healthy build.
	Unexpected int `json:"unexpected"`
	// Stragglers are guests still unfinished when drainBudget expired.
	Stragglers      int    `json:"stragglers"`
	FirstUnexpected string `json:"first_unexpected,omitempty"`
	// ErrorRate is (Unexpected + Stragglers + Rejected) / Arrivals — the
	// figure stopibench -supervisor gates on alongside P99.
	ErrorRate float64 `json:"error_rate"`

	Preemptions uint64 `json:"preemptions"`
	Parks       uint64 `json:"parks"`
	Restores    uint64 `json:"restores"`
	ParkPins    uint64 `json:"park_pins"`
	// ParkPinsByReason breaks ParkPins down by snapshot.PinError kind;
	// the standard mix must keep it empty (gated in the verify pass).
	ParkPinsByReason map[string]uint64 `json:"park_pins_by_reason,omitempty"`
	StepsTotal       uint64            `json:"steps_total"`

	Sched      LatencySummary `json:"sched_latency"`
	Turn       LatencySummary `json:"turn_duration"`
	RestoreLat LatencySummary `json:"restore_latency"`

	// WorstWindowP99 is the maximum windowed P99 over windows with at least
	// minWindowTurns samples (whole-run P99 when no window qualifies) — the
	// "was there a bad minute" number.
	WorstWindowP99 float64         `json:"worst_window_p99_ms"`
	Windows        []WindowSummary `json:"windows"`
}

// loadRec is the harness's book entry for one admitted guest. churnKilled is
// written only by the churn driver goroutine and read only after it joins.
type loadRec struct {
	g           *Guest
	want        string
	hostile     bool
	churnKilled bool
}

// Tenant profiles. Batch guests are benchWorkloads; the two profiles after
// it add what an open-loop serving fleet actually has: sessions that go idle
// mid-flight and become park candidates.

// benchWorkloads is the guest mix: loop-heavy, call-heavy, string/property
// heavy, and a timer user — small programs, many tenants, like the
// embedded-script serving scenario. Each returns output depending on its
// seed so the harness can verify isolation cheaply.
var benchWorkloads = []func(seed int) (src, want string){
	func(seed int) (string, string) {
		n := 0
		for i := 0; i < 2500; i++ {
			n = (n + i*3 + seed) % 99991
		}
		return fmt.Sprintf(`
var n = 0;
for (var i = 0; i < 2500; i++) { n = (n + i * 3 + %d) %% 99991; }
console.log("sum", n);
`, seed), fmt.Sprintf("sum %d\n", n)
	},
	func(seed int) (string, string) {
		var fib func(int) int
		fib = func(n int) int {
			if n < 2 {
				return n
			}
			return fib(n-1) + fib(n-2)
		}
		k := 12 + seed%3
		return fmt.Sprintf(`
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log("fib", fib(%d));
`, k), fmt.Sprintf("fib %d\n", fib(k))
	},
	func(seed int) (string, string) {
		var b strings.Builder
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "%d", (seed+i)%10)
		}
		return fmt.Sprintf(`
var s = "";
for (var i = 0; i < 40; i++) { s += (%d + i) %% 10; }
var o = {};
for (var j = 0; j < 60; j++) { o["k" + (j %% 8)] = j; }
var c = 0;
for (var k in o) { c++; }
console.log(s, c);
`, seed), b.String() + " 8\n"
	},
	func(seed int) (string, string) {
		return fmt.Sprintf(`
var acc = %d;
setTimeout(function () {
  for (var i = 0; i < 500; i++) { acc += i; }
  console.log("timer", acc);
}, 1);
for (var j = 0; j < 800; j++) { acc += 0; }
`, seed), fmt.Sprintf("timer %d\n", seed+124750)
	},
}

// loadInteractiveProgram is a multi-turn REPL session: bursts of work
// separated by think-time sleeps, on the interactive lane. While it sleeps
// it is exactly the idle-but-live tenant MaxResident parks — and what it
// holds across those parks is deliberately the state wire v2 un-pinned: the
// turn callback is a *bound* function, a Date from session start must read
// the same time-value after every restore, and each turn schedules a decoy
// timer it immediately clears (the cleared handle leaves the event loop; if
// a park brought it back the decoy would run an extra turn and the output
// check below would catch it).
func loadInteractiveProgram(seed int) (src, want string) {
	const turns = 3
	sleep := 40 + seed%80
	acc := seed % 9973
	var w strings.Builder
	for t := 0; t < turns; t++ {
		for i := 0; i < 300; i++ {
			acc = (acc + i*7 + seed) % 9973
		}
		fmt.Fprintf(&w, "t%d %d\n", t, acc)
	}
	w.WriteString("bye stable\n")
	src = fmt.Sprintf(`
var born = new Date();
var t0 = born.getTime();
var acc = %d;
var turn = 0;
function stepImpl(tag) {
  for (var i = 0; i < 300; i++) { acc = (acc + i * 7 + %d) %% 9973; }
  console.log(tag + turn, acc);
  turn++;
  if (turn < %d) {
    var decoy = setTimeout(step, %d);
    setTimeout(step, %d);
    clearTimeout(decoy);
  } else {
    console.log("bye", born.getTime() === t0 ? "stable" : "drift");
  }
}
var step = stepImpl.bind(null, "t");
step();
`, seed%9973, seed, turns, sleep, sleep)
	return src, w.String()
}

// loadSleeperProgram sleeps first and computes after — admitted, instantly
// idle, parked under residency pressure, restored when the timer fires. The
// pending timer carries forwarded extra args, a cleared twin must stay gone,
// and a Date instance must stay internally consistent after restore; a
// codec fault in any of them corrupts the verified output.
func loadSleeperProgram(seed int) (src, want string) {
	sleep := 150 + (seed*37)%350
	src = fmt.Sprintf(`
var mark = new Date();
function wake(bonus, tag) {
  var n = 0;
  for (var i = 0; i < 200; i++) { n += i; }
  console.log(tag, n + bonus, mark.getTime() === mark.valueOf() ? "ok" : "bad");
}
var dead = setTimeout(wake, %d, 0, "never");
clearTimeout(dead);
setTimeout(wake, %d, %d, "woke");
`, sleep, sleep, seed)
	return src, fmt.Sprintf("woke %d ok\n", 19900+seed)
}

// worstWindowP99 is the "was there a bad minute" number: the maximum
// windowed P99 over windows with at least minWindowTurns samples, or
// fallback (the whole-run P99) when no window has enough turns to be
// statistically meaningful.
func worstWindowP99(windows []WindowSummary, fallback float64) float64 {
	worst := 0.0
	for _, w := range windows {
		if w.Turns >= minWindowTurns && w.P99 > worst {
			worst = w.P99
		}
	}
	if worst == 0 {
		worst = fallback
	}
	return worst
}

// RunLoad executes one sustained open-loop load run and verifies every
// finished guest's outcome against its profile.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg.normalize()
	s := New(Options{
		Workers:      loadWorkers,
		QuantumSteps: loadQuantum,
		MaxResident:  cfg.MaxResident,
		ProfileEvery: cfg.ProfileEvery,
	})
	defer s.Close()

	var (
		recMu sync.Mutex
		recs  []*loadRec
	)
	// pickLive probes a few random records for one that is still in flight.
	pickLive := func(rng *rand.Rand) *loadRec {
		recMu.Lock()
		defer recMu.Unlock()
		if len(recs) == 0 {
			return nil
		}
		for probe := 0; probe < 4; probe++ {
			r := recs[rng.Intn(len(recs))]
			if r.g.State() != StateDone {
				return r
			}
		}
		return nil
	}

	// The churn driver: session lifecycle noise at a steady beat, on top of
	// whatever the arrival process is doing. Pauses are always paired with a
	// delayed Resume, so nothing it touches can hang the drain.
	var (
		stopChurn = make(chan struct{})
		churnWG   sync.WaitGroup
		pauses    int
		kills     int
		resumes   atomic.Int64
	)
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(loadSeed + 1))
		tick := time.NewTicker(churnTick)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-stopChurn:
				return
			case <-tick.C:
			}
			rec := pickLive(rng)
			if rec == nil || rec.hostile {
				// Hostiles die by deadline, on schedule; churning them
				// would turn the deadline assertion into a coin flip.
				continue
			}
			if n%churnKillEvery == 0 {
				// Flag before Kill: if the kill races normal completion
				// and loses, verification accepts either outcome.
				rec.churnKilled = true
				rec.g.Kill(nil)
				kills++
				continue
			}
			rec.g.Pause()
			pauses++
			g := rec.g
			delay := time.Duration(100+rng.Intn(200)) * time.Millisecond
			time.AfterFunc(delay, func() {
				g.Resume()
				resumes.Add(1)
			})
		}
	}()

	// The open-loop generator. `next` advances by the arrival process alone
	// — when submission falls behind schedule the loop catches up without
	// sleeping, like real traffic that does not slow down because the
	// server did.
	rng := rand.New(rand.NewSource(loadSeed))
	interval := float64(time.Second) / cfg.ArrivalRate
	start := time.Now()
	end := start.Add(cfg.Duration)
	next := start
	arrivals, admitted, rejected := 0, 0, 0
	for next.Before(end) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		i := arrivals
		arrivals++
		var (
			src, want string
			pol       *Policy
			hostile   bool
		)
		switch {
		case i%hostileEvery == hostileEvery-1:
			hostile = true
			src = `while (true) { var x = 1; }`
			pol = &Policy{WallDeadline: hostileDeadline}
		case i%4 == 1:
			src, want = loadInteractiveProgram(i)
			pol = &Policy{Lane: LaneInteractive}
		case i%4 == 3:
			src, want = loadSleeperProgram(i)
		default:
			src, want = benchWorkloads[(i/2)%len(benchWorkloads)](i)
		}
		g, err := s.Submit(SubmitOptions{Source: src, Policy: pol})
		switch {
		case errors.Is(err, ErrQueueFull):
			rejected++
		case err != nil:
			close(stopChurn)
			churnWG.Wait()
			return nil, fmt.Errorf("submit %d: %w", i, err)
		default:
			rec := &loadRec{g: g, want: want, hostile: hostile}
			recMu.Lock()
			recs = append(recs, rec)
			recMu.Unlock()
			admitted++
		}
		next = next.Add(time.Duration(rng.ExpFloat64() * interval))
	}
	genWall := time.Since(start)

	close(stopChurn)
	churnWG.Wait()
	drained := s.DrainTimeout(drainBudget)
	wall := time.Since(start)

	// Verify every finished guest against its profile. The churn driver has
	// joined, so churnKilled reads are ordered; the generator is this
	// goroutine, so recs is complete.
	unexpected, stragglers := 0, 0
	firstBad := ""
	note := func(format, output string, a ...interface{}) {
		unexpected++
		if firstBad == "" {
			firstBad = fmt.Sprintf(format, a...)
			if output != "" {
				firstBad += fmt.Sprintf(" (output %q)", output)
			}
		}
	}
	for idx, r := range recs {
		select {
		case <-r.g.Done():
		default:
			stragglers++ // drainBudget expired on this guest
			continue
		}
		res := r.g.Result()
		switch {
		case r.hostile:
			if !errors.Is(res.Err, ErrDeadline) {
				note("hostile guest %d: err=%v, want deadline kill", "", idx, res.Err)
			}
		case r.churnKilled:
			// The kill may have raced normal completion and lost; both a
			// clean kill and a correct completion are in-contract.
			if errors.Is(res.Err, rt.ErrKilled) {
				break
			}
			if res.Err != nil || res.Output != r.want {
				note("churn-killed guest %d: err=%v, want kill or clean finish", res.Output, idx, res.Err)
			}
		case res.Err != nil:
			note("guest %d failed: %v", res.Output, idx, res.Err)
		case res.Output != r.want:
			note("guest %d output mismatch, want %q — isolation broken", res.Output, idx, r.want)
		}
	}
	if !drained && firstBad == "" {
		firstBad = fmt.Sprintf("%d guests unfinished after %v drain budget", stragglers, drainBudget)
	}

	// Snapshot instrumentation before the deferred Close pollutes the kill
	// counters with shutdown kills of stragglers.
	m := s.Metrics()
	// Every standard profile holds only serializable state — bound
	// functions, Date instances, and pending timers with forwarded
	// arguments all cross the snapshot boundary — so a pinned park attempt
	// here is a codec regression surfacing under load, not expected traffic.
	if m.ParkPins > 0 {
		note("%d park attempts pinned (%v) — standard profiles must serialize",
			"", int(m.ParkPins), m.ParkPinsByReason)
	}
	windows := s.Windows()
	worst := worstWindowP99(windows, m.SchedLatency.P99)

	// Post-mortem artifacts, written while the supervisor (and its flight
	// recorder) is still alive. Failures are reported, not fatal: a run that
	// met its SLOs does not fail because a disk was full.
	var artifactErr error
	if cfg.TraceOut != "" {
		artifactErr = os.WriteFile(cfg.TraceOut, ChromeTrace(s.Trace(0)), 0o644)
	}
	if cfg.ProfileOut != "" && artifactErr == nil {
		var prof bytes.Buffer
		for _, r := range recs {
			if folded := r.g.ProfileFolded(); folded != nil {
				prof.Write(FoldedText(folded, fmt.Sprintf("guest%d", r.g.ID)))
			}
		}
		artifactErr = os.WriteFile(cfg.ProfileOut, prof.Bytes(), 0o644)
	}
	if artifactErr != nil && firstBad == "" {
		firstBad = fmt.Sprintf("artifact write failed: %v", artifactErr)
	}

	res := &LoadResult{
		Config:           cfg,
		WallMs:           float64(wall) / float64(time.Millisecond),
		GenMs:            float64(genWall) / float64(time.Millisecond),
		Arrivals:         arrivals,
		Admitted:         admitted,
		Rejected:         rejected,
		ChurnPauses:      pauses,
		ChurnResumes:     int(resumes.Load()),
		ChurnKills:       kills,
		Completed:        m.Completed,
		Killed:           m.Killed,
		Failed:           m.Failed,
		Unexpected:       unexpected,
		Stragglers:       stragglers,
		FirstUnexpected:  firstBad,
		Preemptions:      m.Preemptions,
		Parks:            m.Parks,
		Restores:         m.Restores,
		ParkPins:         m.ParkPins,
		ParkPinsByReason: m.ParkPinsByReason,
		StepsTotal:       m.StepsTotal,
		Sched:            m.SchedLatency,
		Turn:             m.TurnDuration,
		RestoreLat:       m.RestoreLatency,
		WorstWindowP99:   worst,
		Windows:          windows,
	}
	if arrivals > 0 {
		res.ErrorRate = float64(unexpected+stragglers+rejected) / float64(arrivals)
	}
	return res, nil
}

// Format renders the result as the stopibench report block.
func (r *LoadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "supervisor sustained load: %.0f guests/sec (poisson) for %v, %d workers, quantum %d, max-resident %d\n",
		r.Config.ArrivalRate, r.Config.Duration, loadWorkers, loadQuantum, r.Config.MaxResident)
	fmt.Fprintf(&b, "  arrivals %d (admitted %d, rejected %d) — completed %d, killed %d, failed %d, unexpected %d, stragglers %d\n",
		r.Arrivals, r.Admitted, r.Rejected, r.Completed, r.Killed, r.Failed, r.Unexpected, r.Stragglers)
	fmt.Fprintf(&b, "  churn: %d pauses, %d resumes, %d kills — parks %d, restores %d, pins %d, preemptions %d\n",
		r.ChurnPauses, r.ChurnResumes, r.ChurnKills, r.Parks, r.Restores, r.ParkPins, r.Preemptions)
	fmt.Fprintf(&b, "  error rate %.4f\n", r.ErrorRate)
	if r.FirstUnexpected != "" {
		fmt.Fprintf(&b, "  first unexpected: %s\n", r.FirstUnexpected)
	}
	fmt.Fprintf(&b, "  sched latency (whole run): P50 %.2f ms  P90 %.2f ms  P99 %.2f ms  max %.2f ms (%d turns)\n",
		r.Sched.P50, r.Sched.P90, r.Sched.P99, r.Sched.Max, r.Sched.Count)
	fmt.Fprintf(&b, "  turn duration:             P50 %.2f ms  P90 %.2f ms  P99 %.2f ms  max %.2f ms\n",
		r.Turn.P50, r.Turn.P90, r.Turn.P99, r.Turn.Max)
	if r.RestoreLat.Count > 0 {
		fmt.Fprintf(&b, "  restore-on-touch:          P50 %.2f ms  P90 %.2f ms  P99 %.2f ms  max %.2f ms (%d restores)\n",
			r.RestoreLat.P50, r.RestoreLat.P90, r.RestoreLat.P99, r.RestoreLat.Max, r.RestoreLat.Count)
	}
	if len(r.Windows) > 0 {
		fmt.Fprintf(&b, "  windowed sched latency (%.0f ms buckets):\n", r.Windows[0].WidthMs)
		// Cap the table at ~60 rows; long runs print every k-th window.
		stride := (len(r.Windows) + 59) / 60
		for i := 0; i < len(r.Windows); i += stride {
			w := r.Windows[i]
			fmt.Fprintf(&b, "    t+%6.1fs  turns %5d  P50 %7.2f  P90 %7.2f  P99 %7.2f  max %7.2f\n",
				w.StartMs/1000, w.Turns, w.P50, w.P90, w.P99, w.Max)
		}
	}
	fmt.Fprintf(&b, "  worst window P99: %.2f ms\n", r.WorstWindowP99)
	return b.String()
}
