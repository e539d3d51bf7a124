package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/supervisor"
)

// workload is one set of inputs the benchmark runs. All four are closed
// loops of a fixed amount of work per round: the next guest starts when the
// previous one's verified output is complete, and a round does the same
// work on every commit.
type workload struct {
	name string
	why  string
	// procs is GOMAXPROCS for the run: never more busy threads than the
	// two cores the benchmark assumes.
	procs int
	// roundsPerSecond converts the -seconds budget into a round count; it
	// was calibrated at the commit that added the benchmark and is not a
	// promise about later ones, which do the same rounds in whatever time
	// they take.
	roundsPerSecond float64
	// pauseQuantum and hopQuantum are the statement quanta of the layer
	// table's pause-in-place and migration probes: small enough that every
	// guest of the workload is stopped at least once, and the workload's own
	// where it has one.
	pauseQuantum, hopQuantum uint64
	// path names the layer metric that is a probe guest's whole time along
	// this workload's path, and terms the layers it should be the sum of;
	// what is left over is unexplained_ms, and more than a tenth of it is a
	// finding.
	path  string
	terms []term
	open  func(rng *rand.Rand) (runner, error)
}

// term is one summand of a workload's reconciliation: a layer metric,
// optionally multiplied by a per-guest count and a unit conversion.
type term struct {
	metric string
	times  string  // a count metric; empty for once per guest
	scale  float64 // unit conversion into milliseconds; zero means 1
}

// runner is an opened workload: inputs generated, programs compiled,
// supervisor started.
type runner interface {
	// shape reports how many guest series a round records, and how many
	// guests each epoch series serves.
	shape() (guests int, epochGuests []int)
	// round runs every guest of the workload once, raw and through the
	// system, verifies each output, and records one sample per series.
	round(rec *recorder, tr *tracer)
	// probes are the few guests the layer table is measured on.
	probes() []*guest
	close()
}

var workloads = []*workload{
	{
		name: "kernels", procs: 1, roundsPerSecond: 2.3, pauseQuantum: 2000, hopQuantum: 50000,
		why:   "24 compute kernels run raw and stopified at GOMAXPROCS=1: the interpreter executing instrumented code is over 95% of the work, admission none (Figs 10/13)",
		path:  "core.guest_ms",
		terms: []term{{metric: "core.newrun_ms"}, {metric: "interp.run_ms"}},
		open:  openKernels,
	},
	{
		name: "admit", procs: 2, roundsPerSecond: 3.5, pauseQuantum: 100, hopQuantum: 100,
		why:   "300 requests of about a thousand statements through a one-worker supervisor, half recurring sources, half never-repeated texts: compile and realm build dominate",
		path:  "supervisor.guest_ms.hot",
		terms: []term{{metric: "core.compile_ms"}, {metric: "core.newrun_ms"}, {metric: "interp.run_ms"}, {metric: "supervisor.queue_wait_ms"}},
		open:  openAdmit,
	},
	{
		name: "timeslice", procs: 2, roundsPerSecond: 11.8, pauseQuantum: 2000, hopQuantum: migrateQuantum,
		why:  "six deep-recursion guests time-sliced on one worker at the default quantum: every expiry captures and reinstates a deep stack, admission under 5%",
		path: "supervisor.epoch_guest_ms",
		terms: []term{{metric: "core.compile_ms"}, {metric: "core.newrun_ms"}, {metric: "interp.run_ms"},
			{metric: "rt.pause_resume_us", times: "rt.preemptions", scale: 1e-3}},
		open: openTimeslice,
	},
	{
		name: "migrate", procs: 1, roundsPerSecond: 2.5, pauseQuantum: migrateQuantum, hopQuantum: migrateQuantum,
		why:  "twelve kernels snapshotted at every 20000-statement pause and restored into a fresh realm: encode, decode, recompile and realm build on the read path",
		path: "migrate.guest_ms",
		terms: []term{{metric: "core.newrun_ms"}, {metric: "interp.run_ms"},
			{metric: "snapshot.encode_ms", times: "snapshot.hops"}, {metric: "core.restore_ms", times: "snapshot.hops"},
			{metric: "rt.pause_resume_us", times: "rt.preemptions", scale: 1e-3}},
		open: openMigrate,
	},
}

// pick returns the named guests, in the order named. Probe sets are fixed
// by name so that the layer table measures the same programs whatever order
// the seed put them in.
func pick(guests []*guest, names ...string) []*guest {
	out := make([]*guest, 0, len(names))
	for _, name := range names {
		for _, g := range guests {
			if g.name == name {
				out = append(out, g)
			}
		}
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// recorder collects the samples and the correctness count of one run.
type recorder struct {
	guest, raw, epoch [][]float64 // [series][round], milliseconds
	epochGuests       []int       // guests each epoch series serves
	guests            int         // guests sent through the system
	ops, failed       int         // outputs checked, outputs wrong
	firstFailure      string
}

func newRecorder(r runner) *recorder {
	n, eg := r.shape()
	return &recorder{
		guest: make([][]float64, n), raw: make([][]float64, n),
		epoch: make([][]float64, len(eg)), epochGuests: eg,
	}
}

// check counts one verified output.
func (r *recorder) check(name, got string, err error, want string) {
	r.ops++
	if err == nil && got == want {
		return
	}
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf("%s: err=%v\n  got  %q\n  want %q", name, err, got, want)
	}
}

// timeRaw runs a program without Stopify, the denominator of slowdown.
func timeRaw(p program, rec *recorder, tr *tracer, id int, name string) float64 {
	tr.begin("core.raw", id)
	t0 := time.Now()
	out, err := core.RunRaw(p.src, core.RunConfig{})
	d := ms(time.Since(t0))
	tr.end()
	rec.check(name+" (raw)", out, err, p.want)
	return d
}

// ---------------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------------

const kernelsEpoch = 6

type kernelsRun struct {
	guests   []*guest
	progs    []program
	compiled []*core.Compiled
	eps      [][2]int
}

func openKernels(rng *rand.Rand) (runner, error) {
	guests, err := kernelGuests(kernelCatalogue, rng)
	if err != nil {
		return nil, err
	}
	progs, compiled, err := compileHot(guests)
	if err != nil {
		return nil, err
	}
	return &kernelsRun{guests: guests, progs: progs, compiled: compiled, eps: epochs(len(guests), kernelsEpoch)}, nil
}

// compileHot compiles every guest's recurring text once, as a host that
// runs the same program many times would.
func compileHot(guests []*guest) ([]program, []*core.Compiled, error) {
	progs := make([]program, len(guests))
	compiled := make([]*core.Compiled, len(guests))
	for i, g := range guests {
		progs[i] = g.hot()
		c, err := core.Compile(progs[i].src, g.opts)
		if err != nil {
			return nil, nil, fmt.Errorf("compiling %s: %w", g.name, err)
		}
		compiled[i] = c
	}
	return progs, compiled, nil
}

func (k *kernelsRun) shape() (int, []int) { return len(k.guests), epochSizes(k.eps) }

func (k *kernelsRun) probes() []*guest {
	return pick(k.guests, "python.nbody", "scala.queens", "cpp.crc32", "octane.deltablue_like")
}

func (k *kernelsRun) close() {}

// runCompiled is the core-API life of one stopified guest: a fresh realm,
// then the program to completion.
func runCompiled(c *core.Compiled, tr *tracer, id int) (string, error) {
	var buf bytes.Buffer
	tr.begin("core.newrun", id)
	run, err := c.NewRun(core.RunConfig{Out: &buf})
	tr.end()
	if err != nil {
		return "", err
	}
	tr.begin("interp.run", id)
	err = run.RunToCompletion()
	tr.end()
	return buf.String(), err
}

func (k *kernelsRun) round(rec *recorder, tr *tracer) {
	for e, ep := range k.eps {
		// The epoch is the guests' own time back to back; the raw runs
		// interleaved between them are not part of it.
		epochMs := 0.0
		for i := ep[0]; i < ep[1]; i++ {
			p, name := k.progs[i], k.guests[i].name
			rec.raw[i] = append(rec.raw[i], timeRaw(p, rec, tr, i, name))

			tr.begin("guest", i)
			t0 := time.Now()
			out, err := runCompiled(k.compiled[i], tr, i)
			d := ms(time.Since(t0))
			tr.end()
			rec.check(name, out, err, p.want)
			rec.guests++
			rec.guest[i] = append(rec.guest[i], d)
			epochMs += d
		}
		rec.epoch[e] = append(rec.epoch[e], epochMs)
	}
}

// ---------------------------------------------------------------------------
// admit
// ---------------------------------------------------------------------------

const admitEpoch = 50

// oneWorker is the supervisor both serving workloads use: one worker and
// one submitting goroutine are two busy threads on two cores. Everything
// else is the library default, the 2000-statement quantum included.
func oneWorker() *supervisor.Supervisor {
	return supervisor.New(supervisor.Options{Workers: 1})
}

type admitRun struct {
	slots    []admitSlot
	probeSet []*guest
	eps      [][2]int
	sup      *supervisor.Supervisor
}

func openAdmit(rng *rand.Rand) (runner, error) {
	slots, probeSet := admitPlan(rng)
	return &admitRun{
		slots: slots, probeSet: probeSet,
		eps: epochs(admitSlots, admitEpoch),
		sup: oneWorker(),
	}, nil
}

func (a *admitRun) shape() (int, []int) { return len(a.slots), epochSizes(a.eps) }

func (a *admitRun) probes() []*guest { return a.probeSet }

func (a *admitRun) close() { a.sup.Close() }

// submitted is a guest in flight with what it must print.
type submitted struct {
	g    *supervisor.Guest
	name string
	want string
}

// submit admits a program with the supervisor's default compile options.
func submit(sup *supervisor.Supervisor, g *guest, p program, rec *recorder) (submitted, bool) {
	opts := g.opts
	// Under the supervisor the quantum drives preemption, not a timer.
	opts.YieldIntervalMs = 0
	h, err := sup.Submit(supervisor.SubmitOptions{Source: p.src, Compile: opts})
	if err != nil {
		rec.check(g.name, "", err, p.want)
		return submitted{}, false
	}
	return submitted{g: h, name: g.name, want: p.want}, true
}

// finish waits for a guest, verifies it and forgets it.
func (s submitted) finish(sup *supervisor.Supervisor, rec *recorder) supervisor.Result {
	res := s.g.Wait()
	sup.Remove(s.g.ID)
	rec.check(s.name, res.Output, res.Err, s.want)
	rec.guests++
	return res
}

func (a *admitRun) round(rec *recorder, tr *tracer) {
	// One request at a time, a raw run of the same text interleaved. The
	// epoch is fifty consecutive requests' own time: long enough to pay
	// for the collections a single request dodges. Bursts that overlap the
	// submitter's compile with the worker's run were tried as the epoch and
	// dropped: with both cores busy their floor moved 17 % between runs of
	// the same code. The layer table still measures a burst.
	for e, ep := range a.eps {
		epochMs := 0.0
		for i := ep[0]; i < ep[1]; i++ {
			s := a.slots[i]
			p := s.next()
			rec.raw[i] = append(rec.raw[i], timeRaw(p, rec, tr, i, s.g.name))

			tr.begin("guest", i)
			t0 := time.Now()
			tr.begin("supervisor.submit", i)
			h, ok := submit(a.sup, s.g, p, rec)
			tr.end()
			if ok {
				tr.begin("supervisor.wait", i)
				h.finish(a.sup, rec)
				tr.end()
			}
			d := ms(time.Since(t0))
			tr.end()
			rec.guest[i] = append(rec.guest[i], d)
			epochMs += d
		}
		rec.epoch[e] = append(rec.epoch[e], epochMs)
	}
}

// ---------------------------------------------------------------------------
// timeslice
// ---------------------------------------------------------------------------

type timesliceRun struct {
	guests []*guest
	progs  []program
	sup    *supervisor.Supervisor
}

func openTimeslice(rng *rand.Rand) (runner, error) {
	t := &timesliceRun{guests: templateGuests(sliceTemplates, rng), sup: oneWorker()}
	for _, g := range t.guests {
		t.progs = append(t.progs, g.hot())
	}
	return t, nil
}

func (t *timesliceRun) shape() (int, []int) { return 1, []int{len(t.guests)} }
func (t *timesliceRun) probes() []*guest    { return t.guests[:3] }
func (t *timesliceRun) close()              { t.sup.Close() }

func (t *timesliceRun) round(rec *recorder, tr *tracer) {
	n := float64(len(t.guests))
	rawMs := 0.0
	for i, p := range t.progs {
		rawMs += timeRaw(p, rec, tr, i, t.guests[i].name)
	}
	rec.raw[0] = append(rec.raw[0], rawMs/n)

	// One epoch: all six submitted together and sliced on the one worker.
	// A guest's own wall time includes the slices of the other five, so
	// the unit is the epoch and a guest costs a sixth of it.
	tr.begin("epoch", -1)
	t0 := time.Now()
	inflight := make([]submitted, 0, len(t.progs))
	for i, p := range t.progs {
		tr.begin("supervisor.submit", i)
		h, ok := submit(t.sup, t.guests[i], p, rec)
		tr.end()
		if ok {
			inflight = append(inflight, h)
		}
	}
	tr.begin("supervisor.wait", -1)
	for _, h := range inflight {
		h.finish(t.sup, rec)
	}
	tr.end()
	d := ms(time.Since(t0))
	tr.end()
	rec.guest[0] = append(rec.guest[0], d/n)
	rec.epoch[0] = append(rec.epoch[0], d)
}

// ---------------------------------------------------------------------------
// migrate
// ---------------------------------------------------------------------------

const (
	migrateQuantum = 20000
	migrateEpoch   = 4
)

type migrateRun struct {
	guests   []*guest
	progs    []program
	compiled []*core.Compiled
	eps      [][2]int
}

func openMigrate(rng *rand.Rand) (runner, error) {
	guests, err := kernelGuests(migrateCatalogue, rng)
	if err != nil {
		return nil, err
	}
	progs, compiled, err := compileHot(guests)
	if err != nil {
		return nil, err
	}
	return &migrateRun{guests: guests, progs: progs, compiled: compiled, eps: epochs(len(guests), migrateEpoch)}, nil
}

func (m *migrateRun) shape() (int, []int) { return len(m.guests), epochSizes(m.eps) }

func (m *migrateRun) probes() []*guest {
	// Not ocaml.sieve_rec or scala.fold_sum: their recursion is deep enough
	// that the probe supervisor's 2000-statement quantum thrashes on them
	// (32 x and 11 x the statements; README, finding 1).
	return pick(m.guests, "python.nbody", "scala.queens", "cpp.fixedpoint", "java.hashmap")
}

func (m *migrateRun) close() {}

// pump drives a run's event loop until the program pauses, fails or runs
// out of work.
func pump(run *core.AsyncRun) {
	for !run.Paused() && run.Loop.Len() > 0 {
		if run.Finished() {
			if _, err := run.Result(); err != nil {
				return
			}
		}
		run.Loop.RunOne()
	}
}

// migration is what one migrating guest did.
type migration struct {
	out       string
	hops      int
	blobBytes int
	steps     uint64
}

// migrate runs a compiled program under a quantum whose hook pauses it, and
// at every pause moves it: snapshot, restore into a fresh realm, re-arm,
// resume. The virtual clock keeps the time estimator from adding pauses of
// its own, so the hop count is exact.
func migrate(c *core.Compiled, quantum uint64, tr *tracer, id int) (migration, error) {
	var (
		m   migration
		run *core.AsyncRun
		buf = &bytes.Buffer{}
	)
	pause := func() { run.Pause(nil) }
	tr.begin("core.newrun", id)
	run, err := c.NewRun(core.RunConfig{
		Clock: eventloop.NewVirtualClock(), Out: buf,
		QuantumSteps: quantum, OnQuantum: pause,
	})
	tr.end()
	if err != nil {
		return m, err
	}
	run.Run(nil)
	for {
		tr.begin("interp.run", id)
		pump(run)
		tr.end()
		if !run.Paused() {
			break
		}
		tr.begin("snapshot.encode", id)
		blob, err := run.Snapshot()
		tr.end()
		if err != nil {
			return m, err
		}
		m.hops++
		m.blobBytes += len(blob)
		buf = &bytes.Buffer{}
		tr.begin("core.restore", id)
		run, err = core.RestoreWith(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: buf},
			blob, core.RestoreOptions{ReplayOutput: true})
		tr.end()
		if err != nil {
			return m, err
		}
		run.SetOnQuantum(pause)
		run.ArmQuantum(quantum)
		run.Resume()
	}
	m.out, m.steps = buf.String(), run.Steps()
	_, err = run.Result()
	return m, err
}

func (m *migrateRun) round(rec *recorder, tr *tracer) {
	for e, ep := range m.eps {
		epochMs := 0.0
		for i := ep[0]; i < ep[1]; i++ {
			p, name := m.progs[i], m.guests[i].name
			rec.raw[i] = append(rec.raw[i], timeRaw(p, rec, tr, i, name))

			tr.begin("guest", i)
			t0 := time.Now()
			mg, err := migrate(m.compiled[i], migrateQuantum, tr, i)
			d := ms(time.Since(t0))
			tr.end()
			rec.check(name, mg.out, err, p.want)
			rec.guests++
			rec.guest[i] = append(rec.guest[i], d)
			epochMs += d
		}
		rec.epoch[e] = append(rec.epoch[e], epochMs)
	}
}
