package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/boxes"
	"repro/internal/core"
	"repro/internal/desugar"
	"repro/internal/instrument"
	"repro/internal/parser"
	"repro/internal/resolve"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/supervisor"
)

// The layer table is one probe suite run over a few guests of the workload
// (its probe set): every layer a request can pass through, outside in —
// stopifyd's socket, the supervisor, the compiler and its passes, realm
// construction, the interpreter, continuation capture, the snapshot codec —
// is timed around its public functions on the same programs, so the rows
// can be subtracted from one another. Each probe runs once per guest per
// round, round-robin, and every timing is the floor of its series.

// probeRounds is the sample count behind every layer floor.
const probeRounds = minSamples

// backendEvery thins the explicit-engine runs, which inform the table but
// feed no other row: one round in four.
const backendEvery = 4

// unboundedQuantum never expires: the same guests without preemption.
const unboundedQuantum = 1 << 62

// samples holds the probe series by metric name and probe guest.
type samples struct {
	guests int
	byName map[string][][]float64
}

func (s *samples) add(name string, guest int, v float64) {
	series, ok := s.byName[name]
	if !ok {
		series = make([][]float64, s.guests)
		s.byName[name] = series
	}
	series[guest] = append(series[guest], v)
}

// floor is the mean over the probe guests of each guest's floor.
func (s *samples) floor(name string) float64 {
	var fs []float64
	for _, g := range s.byName[name] {
		if len(g) > 0 { // per-round probes fill only the first guest's series
			fs = append(fs, floor(g))
		}
	}
	if len(fs) == 0 {
		return 0
	}
	return stats.Mean(fs)
}

// exact is for counters that repeat: the mean over the guests of each
// guest's smallest reading. (A real-clock run that a neighbour stalls past
// the yield interval takes an extra pause and a few more statements; the
// smallest reading is the undisturbed one.)
func (s *samples) exact(name string) float64 {
	series, ok := s.byName[name]
	if !ok {
		return 0
	}
	mins := make([]float64, 0, len(series))
	for _, g := range series {
		if len(g) > 0 {
			mins = append(mins, stats.Quantile(g, 0))
		}
	}
	return stats.Mean(mins)
}

// median is for quantities that are neither floors nor exact, such as the
// latency of the starvation probe.
func (s *samples) median(name string) float64 {
	var all []float64
	for _, g := range s.byName[name] {
		all = append(all, g...)
	}
	if len(all) == 0 {
		return 0
	}
	return stats.Median(all)
}

// desugarOptions and instrumentOptions spell out how core.compileProgram
// configures the two passes that take options, so the probe can run the
// passes one at a time.
func desugarOptions(o core.Opts) desugar.Options {
	implicits := map[string]desugar.ImplicitsMode{
		"none": desugar.ImplicitsNone, "plus": desugar.ImplicitsPlus, "full": desugar.ImplicitsFull,
	}
	return desugar.Options{
		Implicits:   implicits[o.Implicits],
		Getters:     o.Getters,
		CtorDesugar: o.Ctor == "direct",
		ArgsFull:    o.Args == "full",
		Suspend:     o.Suspend,
		Breakpoints: o.Debug,
	}
}

func instrumentOptions(o core.Opts) instrument.Options {
	strategy := map[string]instrument.Strategy{
		"checked": instrument.Checked, "exceptional": instrument.Exceptional, "eager": instrument.Eager,
	}
	args := map[string]instrument.ArgsMode{
		"none": instrument.ArgsNone, "varargs": instrument.ArgsVarargs,
		"mixed": instrument.ArgsMixed, "full": instrument.ArgsFull,
	}
	return instrument.Options{
		Strategy:           strategy[o.Cont],
		WrappedCtors:       o.Ctor == "wrapped",
		Args:               args[o.Args],
		PerStatementGuards: o.PerStatementGuards,
	}
}

// passNames are the compiler passes in core.compileProgram's order.
var passNames = []string{
	"parser.parse_ms", "desugar.apply_ms", "anf.normalize_ms",
	"boxes.box_ms", "instrument.apply_ms", "resolve.program_ms",
}

// prober runs the probe suite.
type prober struct {
	w      *workload
	guests []*guest
	s      *samples
	rec    *recorder // every probe execution is verified like a guest
	supQ   *supervisor.Supervisor
	supInf *supervisor.Supervisor
	daemon *daemon
	liner  *guest // a one-line guest, the starvation probe
}

// passes times each compiler pass on the user program alone.
func (pr *prober) passes(i int, p program, o core.Opts) error {
	var t time.Time
	lap := func(name string) {
		now := time.Now()
		pr.s.add(name, i, ms(now.Sub(t)))
		t = now
	}
	t = time.Now()
	prog, err := parser.Parse(p.src)
	if err != nil {
		return err
	}
	lap(passNames[0])
	wrapped := &ast.Program{Body: []ast.Stmt{
		&ast.FuncDecl{Fn: &ast.Func{Name: "$main", Body: prog.Body}},
	}}
	t = time.Now()
	desugar.Apply(wrapped, desugarOptions(o), &desugar.Namer{})
	lap(passNames[1])
	anf.Normalize(wrapped)
	lap(passNames[2])
	boxes.Box(wrapped)
	lap(passNames[3])
	instrument.Apply(wrapped, instrumentOptions(o))
	lap(passNames[4])
	resolve.Program(wrapped)
	lap(passNames[5])
	return nil
}

// timed runs fn and returns its wall time in milliseconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return ms(time.Since(t0))
}

// spanMs sums the wall time of a private tracer's spans of one name.
func spanMs(tr *tracer, name string) float64 {
	for _, st := range tr.stats() {
		if st.name == name {
			return st.totalMs
		}
	}
	return 0
}

// compileAndRun probes the core API: compile, realm, run, raw.
func (pr *prober) compileAndRun(i, round int, g *guest, p program) (*core.Compiled, error) {
	var (
		c, prelude *core.Compiled
		err        error
	)
	pr.s.add("core.compile_ms", i, timed(func() { c, err = core.Compile(p.src, g.opts) }))
	if err != nil {
		return nil, err
	}
	pr.s.add("core.compile_prelude_ms", i, timed(func() { prelude, err = core.Compile("", g.opts) }))
	if err != nil {
		return nil, err
	}
	pr.s.add("printer.print_ms", i, timed(func() { _ = c.Source() }))
	pr.s.add("printer.print_prelude_ms", i, timed(func() { _ = prelude.Source() }))
	pr.s.add("core.code_growth", i, float64(c.CompiledBytes)/float64(c.SourceBytes))

	// Default engine: realm and run timed apart, and together as the
	// guest's core-level life.
	var buf bytes.Buffer
	var run *core.AsyncRun
	alloc0 := heapAllocBytes()
	t0 := time.Now()
	newrun := timed(func() { run, err = c.NewRun(core.RunConfig{Out: &buf}) })
	if err != nil {
		return nil, err
	}
	before := run.Steps()
	runMs := timed(func() { err = run.RunToCompletion() })
	pr.s.add("core.guest_ms", i, ms(time.Since(t0)))
	pr.s.add("core.newrun_ms", i, newrun)
	pr.s.add("interp.run_ms", i, runMs)
	pr.s.add("interp.steps", i, float64(run.Steps()-before))
	pr.s.add("interp.alloc_kb_per_run", i, float64(heapAllocBytes()-alloc0)/1024)
	pr.rec.check(g.name+" (core)", buf.String(), err, p.want)

	if round%backendEvery == 0 {
		for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
			var buf bytes.Buffer
			run, err := c.NewRun(core.RunConfig{Out: &buf, Backend: backend})
			if err != nil {
				continue // an engine this build does not have is absent, not wrong
			}
			pr.s.add("interp.run_ms."+backend, i, timed(func() { err = run.RunToCompletion() }))
			pr.rec.check(g.name+" ("+backend+")", buf.String(), err, p.want)
		}
	}
	pr.s.add("core.raw_ms", i, timeRaw(p, pr.rec, nil, i, g.name))
	return c, nil
}

// pauseInPlace runs the program under a quantum whose hook pauses it and
// resumes it where it stands: what a preemption costs without a scheduler
// around it.
func (pr *prober) pauseInPlace(i int, g *guest, p program, c *core.Compiled) error {
	var (
		run    *core.AsyncRun
		asked  time.Time
		stop   time.Duration
		pauses int
		buf    bytes.Buffer
	)
	quantum := pr.w.pauseQuantum
	t0 := time.Now()
	// The real clock, like the unpaused run it is compared with.
	run, err := c.NewRun(core.RunConfig{
		Out: &buf, QuantumSteps: quantum,
		OnQuantum: func() { asked = time.Now(); run.Pause(nil) },
	})
	if err != nil {
		return err
	}
	before := run.Steps()
	run.Run(nil)
	for {
		pump(run)
		if !run.Paused() {
			break
		}
		stop += time.Since(asked)
		pauses++
		run.ArmQuantum(quantum)
		run.Resume()
	}
	pr.s.add("rt.paused_guest_ms", i, ms(time.Since(t0)))
	pr.s.add("rt.preemptions", i, float64(pauses))
	pr.s.add("rt.paused_steps", i, float64(run.Steps()-before))
	if pauses > 0 {
		pr.s.add("rt.stop_us", i, 1000*ms(stop)/float64(pauses))
	}
	_, err = run.Result()
	pr.rec.check(g.name+" (paused)", buf.String(), err, p.want)
	return nil
}

// hop migrates the program at every expiry of the hop quantum and reads the
// codec's cost off the migration's own spans.
func (pr *prober) hop(i int, g *guest, p program, c *core.Compiled) {
	tr := newTracer()
	var mg migration
	var err error
	pr.s.add("migrate.guest_ms", i, timed(func() { mg, err = migrate(c, pr.w.hopQuantum, tr, i) }))
	if pin := (*snapshot.PinError)(nil); errors.As(err, &pin) {
		pr.s.add("snapshot.pins", i, 1)
	} else {
		pr.s.add("snapshot.pins", i, 0)
	}
	pr.rec.check(g.name+" (migrated)", mg.out, err, p.want)
	pr.s.add("snapshot.hops", i, float64(mg.hops))
	if mg.hops == 0 {
		return
	}
	hops := float64(mg.hops)
	encode := spanMs(tr, "snapshot.encode")
	restore := spanMs(tr, "core.restore")
	pr.s.add("snapshot.encode_ms", i, encode/hops)
	pr.s.add("core.restore_ms", i, restore/hops)
	pr.s.add("snapshot.blob_kb", i, float64(mg.blobBytes)/1024/hops)
}

// solo sends one program through the one-worker supervisor alone.
func (pr *prober) solo(i int, g *guest, p program, kind string) {
	t0 := time.Now()
	var h submitted
	var ok bool
	submitMs := timed(func() { h, ok = submit(pr.supQ, g, p, pr.rec) })
	if !ok {
		return
	}
	res := h.finish(pr.supQ, pr.rec)
	pr.s.add("supervisor.guest_ms."+kind, i, ms(time.Since(t0)))
	if kind == "hot" {
		pr.s.add("supervisor.submit_ms", i, submitMs)
		pr.s.add("supervisor.queue_wait_ms", i, ms(res.QueueWait))
	}
}

// burst submits the whole probe set at once to sup and returns the epoch's
// wall time. With withLiner, a one-line guest follows the set in: it must
// not wait for the set to finish.
func (pr *prober) burst(sup *supervisor.Supervisor, withLiner bool) float64 {
	t0 := time.Now()
	inflight := make([]submitted, 0, len(pr.guests))
	for _, g := range pr.guests {
		if h, ok := submit(sup, g, g.hot(), pr.rec); ok {
			inflight = append(inflight, h)
		}
	}
	if withLiner {
		l0 := time.Now()
		if h, ok := submit(sup, pr.liner, pr.liner.unique(), pr.rec); ok {
			h.finish(sup, pr.rec)
			pr.s.add("supervisor.probe_ms", 0, ms(time.Since(l0)))
		}
	}
	preemptions, quanta := 0, 0
	for _, h := range inflight {
		res := h.finish(sup, pr.rec)
		preemptions += res.Preemptions
		quanta += res.Quanta
	}
	d := ms(time.Since(t0))
	if withLiner {
		pr.s.add("supervisor.preemptions", 0, float64(preemptions))
		pr.s.add("supervisor.quanta_per_guest", 0, float64(quanta)/float64(len(inflight)))
	}
	return d
}

// round probes every guest once.
func (pr *prober) round(round int) error {
	for i, g := range pr.guests {
		p := g.hot()
		if err := pr.passes(i, p, g.opts); err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		c, err := pr.compileAndRun(i, round, g, p)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		if err := pr.pauseInPlace(i, g, p, c); err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		pr.hop(i, g, p, c)
		pr.solo(i, g, p, "hot")
		pr.solo(i, g, g.unique(), "unique")

		if pr.daemon != nil {
			var out string
			pr.s.add("stopifyd.request_ms", i, timed(func() { out, err = pr.daemon.request(p.src) }))
			pr.rec.check(g.name+" (http)", out, err, p.want)
		}
	}
	pr.s.add("supervisor.epoch_ms", 0, pr.burst(pr.supQ, true))
	pr.s.add("supervisor.epoch_unbounded_ms", 0, pr.burst(pr.supInf, false))
	return nil
}

// defaultOptions reports whether every guest compiles with core.Defaults.
func defaultOptions(guests []*guest) bool {
	for _, g := range guests {
		if g.opts != core.Defaults() {
			return false
		}
	}
	return true
}

// daemonStarts is how many times the daemon is started to floor ready_ms.
const daemonStarts = 3

// probeLayers runs the suite and reduces it to the layer metrics.
func probeLayers(w *workload, r runner, rounds int) (map[string]float64, *recorder, error) {
	guests := r.probes()
	pr := &prober{
		w: w, guests: guests,
		s:      &samples{guests: len(guests), byName: map[string][][]float64{}},
		rec:    &recorder{},
		supQ:   oneWorker(),
		supInf: supervisor.New(supervisor.Options{Workers: 1, QuantumSteps: unboundedQuantum}),
		liner:  lineTemplate.guest(literals{hotLit: hotLo}),
	}
	defer pr.supQ.Close()
	defer pr.supInf.Close()

	// POST /run carries no compile options: the daemon compiles every
	// program with the defaults, and a kernel that needs its profile's
	// sub-language prints nothing there. So the HTTP rows exist only where
	// every probe guest is a default-options program.
	var ready []float64
	if defaultOptions(guests) {
		bin, err := buildDaemon(filepath.Join(outDir, "bin"))
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < daemonStarts; i++ {
			if pr.daemon != nil {
				pr.daemon.stop()
			}
			if pr.daemon, err = startDaemon(bin); err != nil {
				return nil, nil, err
			}
			ready = append(ready, pr.daemon.readyMs)
		}
		defer pr.daemon.stop()
	}
	for round := 0; round < rounds; round++ {
		if err := pr.round(round); err != nil {
			return nil, nil, err
		}
	}
	sched := pr.supQ.Metrics()

	s := pr.s
	m := map[string]float64{}
	for _, name := range passNames {
		m[name] = s.floor(name)
	}
	passes := 0.0
	for _, name := range passNames {
		passes += m[name]
	}
	m["printer.print_ms"] = s.floor("printer.print_ms")
	m["core.compile_ms"] = s.floor("core.compile_ms")
	m["core.compile_prelude_ms"] = s.floor("core.compile_prelude_ms")
	m["core.compile_unexplained_ms"] = m["core.compile_ms"] - m["core.compile_prelude_ms"] - passes -
		(m["printer.print_ms"] - s.floor("printer.print_prelude_ms"))
	m["core.newrun_ms"] = s.floor("core.newrun_ms")
	m["core.guest_ms"] = s.floor("core.guest_ms")
	m["core.code_growth"] = s.exact("core.code_growth")
	m["core.raw_ms"] = s.floor("core.raw_ms")
	m["interp.run_ms"] = s.floor("interp.run_ms")
	m["interp.steps"] = s.exact("interp.steps")
	m["interp.ns_per_step"] = 1e6 * m["interp.run_ms"] / m["interp.steps"]
	m["interp.alloc_kb_per_run"] = s.exact("interp.alloc_kb_per_run")
	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		if _, ok := s.byName["interp.run_ms."+backend]; ok {
			m["interp.run_ms."+backend] = s.floor("interp.run_ms." + backend)
		}
	}

	m["rt.preemptions"] = s.exact("rt.preemptions")
	m["rt.restep_ratio"] = s.exact("rt.paused_steps") / m["interp.steps"]
	m["rt.stop_us"] = s.floor("rt.stop_us")
	m["rt.paused_guest_ms"] = s.floor("rt.paused_guest_ms")
	if m["rt.preemptions"] > 0 {
		m["rt.pause_resume_us"] = 1000 * (m["rt.paused_guest_ms"] - m["core.guest_ms"]) / m["rt.preemptions"]
	}

	m["snapshot.hops"] = s.exact("snapshot.hops")
	m["snapshot.pins"] = s.exact("snapshot.pins") * float64(len(guests))
	m["snapshot.encode_ms"] = s.floor("snapshot.encode_ms")
	m["snapshot.blob_kb"] = s.exact("snapshot.blob_kb")
	m["core.restore_ms"] = s.floor("core.restore_ms")
	m["migrate.guest_ms"] = s.floor("migrate.guest_ms")
	if m["snapshot.encode_ms"] > 0 {
		m["snapshot.encode_mb_s"] = m["snapshot.blob_kb"] / 1024 / (m["snapshot.encode_ms"] / 1000)
		m["core.restore_mb_s"] = m["snapshot.blob_kb"] / 1024 / (m["core.restore_ms"] / 1000)
	}

	hot, unique := s.floor("supervisor.guest_ms.hot"), s.floor("supervisor.guest_ms.unique")
	m["supervisor.guest_ms.hot"], m["supervisor.guest_ms.unique"] = hot, unique
	m["supervisor.submit_ms"] = s.floor("supervisor.submit_ms")
	m["supervisor.queue_wait_ms"] = s.floor("supervisor.queue_wait_ms")
	m["supervisor.overhead_ms"] = hot - (m["core.compile_ms"] + m["core.guest_ms"])
	m["supervisor.turn_ms_p50"] = sched.TurnDuration.P50
	m["supervisor.sched_ms_p50"] = sched.SchedLatency.P50
	m["supervisor.sched_ms_p99"] = sched.SchedLatency.P99
	m["supervisor.preemptions"] = s.exact("supervisor.preemptions")
	m["supervisor.quanta_per_guest"] = s.exact("supervisor.quanta_per_guest")
	m["supervisor.epoch_guest_ms"] = s.floor("supervisor.epoch_ms") / float64(len(guests))
	m["supervisor.preempt_tax"] = s.floor("supervisor.epoch_ms") / s.floor("supervisor.epoch_unbounded_ms")
	m["supervisor.probe_ms_p50"] = s.median("supervisor.probe_ms")

	if pr.daemon != nil {
		m["stopifyd.ready_ms"] = floor(ready)
		m["stopifyd.request_ms"] = s.floor("stopifyd.request_ms")
		m["stopifyd.http_overhead_ms"] = m["stopifyd.request_ms"] - hot
	}

	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("layer metric %s is %v", name, v)
		}
	}
	return m, pr.rec, nil
}
