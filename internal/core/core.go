// Package core is the Stopify compiler driver: it composes the pipeline
// (desugar → A-normalize → box → instrument), assembles the runtime
// prelude, and exposes the stopify() API of Figure 1 — compile a program
// with a sub-language specification and get back an AsyncRun with run,
// pause, resume, breakpoints, stepping, and blocking operations.
package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/boxes"
	"repro/internal/desugar"
	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/printer"
	"repro/internal/resolve"
	"repro/internal/rt"
	"repro/internal/snapshot"
)

// Opts mirrors the stopify options object of Figure 1, plus host knobs
// (engine profile, clock, output).
type Opts struct {
	// Cont selects the continuation representation: "checked",
	// "exceptional", or "eager" (§3.2).
	Cont string
	// Ctor selects the constructor strategy: "direct" (desugar to
	// Object.create) or "wrapped" (dynamic new.target handling) (§3.2).
	Ctor string
	// Timer selects the elapsed-time estimator: "exact", "countdown", or
	// "approx" (§5.1).
	Timer string
	// YieldIntervalMs is δ; zero disables periodic yielding.
	YieldIntervalMs float64
	// CountdownN is the call budget for the countdown estimator.
	CountdownN int
	// DeepStacks simulates an arbitrarily deep stack (§5.2).
	DeepStacks bool
	// Implicits is the Impl column of Figure 5: "none", "plus", or "full".
	Implicits string
	// Args is the arity sub-language (§4.2): "none", "varargs", "mixed",
	// or "full".
	Args string
	// Getters instruments property access for user accessors (§4.3).
	Getters bool
	// Eval compiles eval'd strings with Stopify (§4.3); without it, eval
	// throws.
	Eval bool
	// Debug inserts $bp before every statement for breakpoints and
	// stepping (§5.2).
	Debug bool
	// Suspend inserts $suspend in every function and loop; disabling it
	// yields a continuation-only build (library/testing use).
	Suspend bool
	// PerStatementGuards selects the paper's literal per-statement `if
	// (normal)` wrapping instead of grouped guards (ablation knob).
	PerStatementGuards bool
}

// Defaults returns the configuration used when callers leave Opts zeroed:
// checked continuations, desugared constructors, the approx estimator with
// a 100 ms yield interval, and the most restrictive sub-language.
func Defaults() Opts {
	return Opts{
		Cont:            "checked",
		Ctor:            "direct",
		Timer:           "approx",
		YieldIntervalMs: 100,
		Implicits:       "none",
		Args:            "none",
		Suspend:         true,
	}
}

func (o *Opts) normalize() error {
	def := Defaults()
	if o.Cont == "" {
		o.Cont = def.Cont
	}
	if o.Ctor == "" {
		o.Ctor = def.Ctor
	}
	if o.Timer == "" {
		o.Timer = def.Timer
	}
	if o.Implicits == "" {
		o.Implicits = def.Implicits
	}
	if o.Args == "" {
		o.Args = def.Args
	}
	switch o.Cont {
	case "checked", "exceptional", "eager":
	default:
		return fmt.Errorf("stopify: unknown continuation strategy %q", o.Cont)
	}
	switch o.Ctor {
	case "direct", "wrapped":
	default:
		return fmt.Errorf("stopify: unknown constructor strategy %q", o.Ctor)
	}
	switch o.Timer {
	case "exact", "countdown", "approx":
	default:
		return fmt.Errorf("stopify: unknown timer %q", o.Timer)
	}
	switch o.Implicits {
	case "none", "plus", "full":
	default:
		return fmt.Errorf("stopify: unknown implicits mode %q", o.Implicits)
	}
	switch o.Args {
	case "none", "varargs", "mixed", "full":
	default:
		return fmt.Errorf("stopify: unknown args mode %q", o.Args)
	}
	return nil
}

func (o Opts) strategy() instrument.Strategy {
	switch o.Cont {
	case "exceptional":
		return instrument.Exceptional
	case "eager":
		return instrument.Eager
	default:
		return instrument.Checked
	}
}

func (o Opts) argsMode() instrument.ArgsMode {
	switch o.Args {
	case "varargs":
		return instrument.ArgsVarargs
	case "mixed":
		return instrument.ArgsMixed
	case "full":
		return instrument.ArgsFull
	default:
		return instrument.ArgsNone
	}
}

func (o Opts) implicitsMode() desugar.ImplicitsMode {
	switch o.Implicits {
	case "plus":
		return desugar.ImplicitsPlus
	case "full":
		return desugar.ImplicitsFull
	default:
		return desugar.ImplicitsNone
	}
}

func (o Opts) estimator() rt.EstimatorKind {
	switch o.Timer {
	case "exact":
		return rt.Exact
	case "countdown":
		return rt.Countdown
	default:
		return rt.Approx
	}
}

// narrow is o cut down to the sub-language a program that spells what uses
// records inhabits (DESIGN_interp.md, "What a program uses"): no conversion
// helpers without valueOf or toString, no accessor helpers without an
// accessor literal or an Object that may reach defineProperty, and no
// arguments instrumentation without arguments — which, where o promises none,
// widens to full. A program that names eval keeps o: what a fragment uses is
// not in the text.
func (o Opts) narrow(uses ast.Uses) Opts {
	if uses&ast.UsesEval != 0 {
		return o
	}
	if uses&ast.UsesConversions == 0 {
		o.Implicits = "none"
	}
	if uses&ast.UsesAccessors == 0 {
		o.Getters = false
	}
	switch {
	case uses&ast.UsesArguments == 0:
		o.Args = "none"
	case o.Args == "none":
		o.Args = "full"
	}
	return o
}

// Compiled is the output of the Stopify compiler.
type Compiled struct {
	Prog *ast.Program
	// Opts is what Prog was compiled under, the one source of the
	// sub-language for the runtime, the prelude and eval fragments: the
	// options the caller declared, narrowed to what the program uses.
	Opts Opts
	// declared is the options as the caller gave them (normalized): the
	// compile memo's key and a snapshot header's, from which Compile
	// derives Opts again.
	declared Opts

	// SourceText is the original source, retained so a snapshot can embed
	// it and a restoring process can recompile an identical program.
	SourceText string

	// SourceBytes and CompiledBytes measure code growth (§6.1).
	SourceBytes   int
	CompiledBytes int

	// codeTable is built lazily: only snapshot/restore needs it, and one
	// table serves every run of this compiled program.
	codeOnce sync.Once
	code     *snapshot.CodeTable
}

// codeTable returns the program's deterministic function/scope ID table.
func (c *Compiled) codeTable() *snapshot.CodeTable {
	c.codeOnce.Do(func() { c.code = snapshot.NewCodeTable(c.Prog) })
	return c.code
}

// Compile runs source through the full Stopify pipeline. It is the cold
// primitive: every call parses and instruments source afresh (only the
// prelude is shared, see preludeFor). Callers that see the same text again
// and again — a supervisor admitting requests, a restore recompiling the
// source in a blob — go through CompileCached.
//
// The program is instrumented under opts narrowed to what it uses
// (Compiled.Opts); a REPL session, whose turns may use more, compiles
// through CompileREPL.
func Compile(source string, opts Opts) (*Compiled, error) {
	return compile(source, opts, false)
}

// CompileREPL is Compile for a REPL session: its turns (AsyncRun.Eval)
// compile under every option declared, so the program and its runtime keep
// them too, however little of them the program itself uses. A snapshot of
// such a run restores through Compile, which narrows: a program that
// narrows then no longer matches its blob, and the restore is refused.
func CompileREPL(source string, opts Opts) (*Compiled, error) {
	return compile(source, opts, true)
}

// compile is Compile, keeping the declared options whole when repl is set.
func compile(source string, declared Opts, repl bool) (*Compiled, error) {
	if err := declared.normalize(); err != nil {
		return nil, err
	}
	userProg, err := parser.Parse(source)
	if err != nil {
		return nil, err
	}
	opts := declared
	if !repl {
		opts = declared.narrow(userProg.Uses)
	}
	pre, err := preludeFor(opts)
	if err != nil {
		return nil, err
	}
	user, err := compileProgram(userProg, opts, &desugar.Namer{}, "$main", pre.tmps, pre.sites)
	if err != nil {
		return nil, err
	}
	body := make([]ast.Stmt, 0, len(pre.body)+len(user.Body))
	body = append(append(body, pre.body...), user.Body...)
	return &Compiled{
		Prog:          &ast.Program{Body: body, Sites: user.Sites},
		Opts:          opts,
		declared:      declared,
		SourceText:    source,
		SourceBytes:   len(source),
		CompiledBytes: pre.printed + printer.Size(user),
	}, nil
}

func (o Opts) desugarOptions() desugar.Options {
	return desugar.Options{
		Implicits:   o.implicitsMode(),
		Getters:     o.Getters,
		CtorDesugar: o.Ctor == "direct",
		ArgsFull:    o.Args == "full",
		Suspend:     o.Suspend,
		Breakpoints: o.Debug,
	}
}

func (o Opts) instrumentOptions() instrument.Options {
	return instrument.Options{
		Strategy:           o.strategy(),
		WrappedCtors:       o.Ctor == "wrapped",
		Args:               o.argsMode(),
		PerStatementGuards: o.PerStatementGuards,
	}
}

// compileProgram wraps user statements into a function named mainName and
// desugars, normalizes, boxes, instruments and resolves it. tmps and sites
// are where the ANF temporaries and the inline-cache site IDs continue
// from: the prelude's counts for $main, so that the spliced program reads
// and numbers exactly as one pass over prelude + $main would; zero
// temporaries and the realm's own site count (interp.Sites) for an eval or
// REPL fragment, which joins a realm already running other trees.
func compileProgram(userProg *ast.Program, opts Opts, nm *desugar.Namer, mainName string, tmps int, sites ast.Sites) (*ast.Program, error) {
	wrapped := &ast.Program{Body: []ast.Stmt{
		&ast.FuncDecl{Fn: &ast.Func{Name: mainName, Body: userProg.Body}},
	}, Guest: userProg.Guest}
	desugar.Apply(wrapped, opts.desugarOptions(), nm)
	_, err := lower(wrapped, opts, tmps, sites)
	return wrapped, err
}

// lower runs the passes that follow desugaring — the same ones, in the same
// order, for $main, for fragments and for the prelude — and returns the ANF
// temporary count afterwards (prog.Sites holds the site count), or the
// resolver's error for a reference the engines cannot address.
func lower(prog *ast.Program, opts Opts, tmps int, sites ast.Sites) (int, error) {
	tmps = anf.NormalizeFrom(prog, tmps)
	boxes.Box(prog)
	instrument.Apply(prog, opts.instrumentOptions())
	// Static scope resolution runs last, on the final tree the interpreter
	// will execute: every pass above is free to synthesize bindings, and the
	// annotations must describe exactly what runs.
	return tmps, resolve.ProgramFrom(prog, sites)
}

// Source prints the compiled JavaScript.
func (c *Compiled) Source() string { return printer.Print(c.Prog) }

// Execution engine ("backend") names accepted by RunConfig.Backend.
const (
	// BackendTree is the tree-walking interpreter: the reference the
	// differential suites, the fuzzer and the benchmark's golden check
	// compare the serving engine against. Nothing serves on it.
	BackendTree = "tree"
	// BackendBytecode, the default, lowers function bodies to flat bytecode
	// (internal/bytecode) and dispatches them through internal/interp's
	// fetch–execute loop; global-frame code (a program's and an eval
	// fragment's top-level statements) stays on the tree-walker.
	BackendBytecode = "bytecode"
)

// RunConfig is the host environment for one execution.
type RunConfig struct {
	Engine *engine.Profile // nil: no cost model, as serving runs; a 100 000-frame stack
	Clock  eventloop.Clock // nil: real clock
	Out    io.Writer       // nil: discard console output
	Seed   uint64          // Math.random seed

	// Backend selects the execution engine: BackendBytecode, which empty
	// means, or BackendTree. It is the one engine selector there is — no
	// flag, option or environment variable reaches it — and only code that
	// names the reference on purpose sets it.
	Backend string

	// MaxSteps aborts execution once the interpreter's statement counter
	// exceeds it (interp.ErrStepBudget); 0 means unlimited. The
	// differential fuzz harness uses it to bound both engines at the same
	// statement boundary.
	MaxSteps uint64

	// QuantumSteps arms a cooperative scheduling quantum: after that many
	// statements (counted at the same boundaries as MaxSteps, on both
	// engines) OnQuantum fires once. The hook is one-shot; re-arm it with
	// AsyncRun.ArmQuantum — which is what the supervisor does at the top
	// of every scheduling turn, making statement boundaries preemption
	// points. 0 disables.
	QuantumSteps uint64
	// OnQuantum is the quantum-expiry hook; it runs on the goroutine
	// executing the program. A scheduler's hook typically requests a
	// pause (AsyncRun.Pause), parking the program at its next yield
	// point.
	OnQuantum func()

	// MemBudgetBytes aborts execution with interp.ErrMemLimit once the
	// realm's allocation meter passes it; 0 means unmetered. The meter is
	// zeroed after the runtime prelude executes, so the budget measures the
	// guest program's own Value-graph growth, and — like MaxSteps — it is
	// cumulative across pause/resume.
	MemBudgetBytes uint64

	// ProfileEvery arms the guest-level sampling profiler: every that many
	// statements the interpreter samples the JS call stack and attributes
	// the interval to it (folded-stack accumulation; see
	// internal/interp/profile.go). 0 leaves profiling off.
	ProfileEvery uint64
}

// useBytecode resolves the configured backend. Unknown names are an error:
// a typo should fail loudly, not silently measure the wrong engine.
func (cfg *RunConfig) useBytecode() (bool, error) {
	switch cfg.Backend {
	case "", BackendBytecode:
		return true, nil
	case BackendTree:
		return false, nil
	}
	return false, fmt.Errorf("stopify: unknown backend %q (want %q or %q)", cfg.Backend, BackendTree, BackendBytecode)
}

// AsyncRun is the run/pause/resume handle of Figure 1.
//
// Concurrency contract: exactly one goroutine at a time pumps the event
// loop (Wait, RunToCompletion, or manual Loop.RunOne) and owns the
// interpreter realm — In, and mutating methods like ArmQuantum, belong to
// it. The control surface — Pause, Resume, Kill, Paused, Finished, Result
// — is safe from any goroutine, which is what lets a supervisor (or a stop
// button on another thread) steer a running program from outside.
type AsyncRun struct {
	In   *interp.Interp
	Loop *eventloop.Loop
	RT   *rt.R

	compiled  *Compiled
	evalTurns int

	// reg and out support Snapshot: the host-object re-link table built at
	// realm construction, and the configured output sink (snapshots carry
	// console output by value when the sink can expose it).
	reg *snapshot.Registry
	out io.Writer

	mu       sync.Mutex
	result   interp.Value
	err      error
	finished bool
}

// NewRun instantiates an interpreter realm, runtime, and event loop for the
// compiled program.
func (c *Compiled) NewRun(cfg RunConfig) (*AsyncRun, error) {
	a, err := c.newRealm(cfg)
	if err != nil {
		return nil, err
	}
	// Define the prelude and $main.
	if err := a.In.RunProgram(c.Prog); err != nil {
		return nil, err
	}
	// The prelude's closures and tables are the runtime's fixed cost, not
	// the guest's: start the allocation meter at zero for $main.
	a.In.ResetMemMeter()
	return a, nil
}

// newRealm builds the interpreter realm, runtime, event loop, and host
// registry — everything up to (but not including) running the compiled
// program. NewRun then executes the program; Restore instead populates the
// realm from a snapshot blob. Both paths share this function so the
// pre-program host graph — what the snapshot registry indexes — is
// identical on the encoding and decoding sides.
func (c *Compiled) newRealm(cfg RunConfig) (*AsyncRun, error) {
	bc, err := cfg.useBytecode()
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = eventloop.NewRealClock()
	}
	loop := eventloop.New(clock)
	in := interp.New(interp.Options{
		Engine:       cfg.Engine,
		Clock:        clock,
		Loop:         loop,
		Out:          cfg.Out,
		Seed:         cfg.Seed,
		Bytecode:     bc,
		MaxSteps:     cfg.MaxSteps,
		QuantumSteps: cfg.QuantumSteps,
		OnQuantum:    cfg.OnQuantum,
		MemBudget:    cfg.MemBudgetBytes,
		ProfileEvery: cfg.ProfileEvery,
	})
	runtime := rt.New(in, loop, rt.Options{
		Instrument:      c.Opts.instrumentOptions(),
		YieldIntervalMs: c.Opts.YieldIntervalMs,
		Estimator:       c.Opts.estimator(),
		CountdownN:      c.Opts.CountdownN,
		DeepStacks:      c.Opts.DeepStacks,
		Debug:           c.Opts.Debug,
	})
	a := &AsyncRun{In: in, Loop: loop, RT: runtime, compiled: c, out: cfg.Out}
	// The registry must be built here — after the interpreter and runtime
	// install their globals, before any guest code runs — so encoding and
	// decoding realms index the same host graph.
	a.reg = snapshot.HostRegistry(in)
	// Restore never runs the program (its bindings come from the blob), so
	// the inline-cache tables are sized here, for both paths.
	in.ReserveSites(c.Prog.Sites)

	if c.Opts.Eval {
		opts := c.Opts
		in.EvalHook = func(src string) (*ast.Program, error) {
			frag, err := compileFragment(src, opts, "$eval", false, in.Sites())
			if err != nil {
				return nil, err
			}
			// The compiled fragment is a single function declaration; the
			// program calls it, made over the global frame and bound to no
			// name. Global eval semantics: the code sees only the global
			// scope, and the call must terminate without capturing (the "T"
			// sub-language of §4.3).
			frag.Body[0] = ast.ExprOf(ast.CallN(frag.Body[0].(*ast.FuncDecl).Fn))
			return frag, nil
		}
	}

	return a, nil
}

// Run starts the program; onDone (optional) observes completion. The
// caller drives the event loop (or uses Wait).
func (a *AsyncRun) Run(onDone func()) {
	mainFn, ok := a.In.Global.Lookup("$main")
	if !ok {
		a.mu.Lock()
		a.finished = true
		a.err = fmt.Errorf("stopify: $main is not defined")
		a.mu.Unlock()
		return
	}
	a.RT.Run(mainFn, func(v interp.Value, err error) {
		a.mu.Lock()
		a.result = v
		a.err = err
		a.finished = true
		a.mu.Unlock()
		if onDone != nil {
			onDone()
		}
	})
}

// Wait pumps the event loop until the program finishes or stalls (paused
// with no pending work) and returns the completion error, if any. After a
// successful $main completion it keeps draining queued work — timer
// callbacks run to completion, as they do in a browser and in the
// un-stopified baseline (RunRaw drains its loop); an error stops the
// program immediately. Like that baseline, draining honors timer delays on
// a real clock: a program that parks an hour-long setTimeout keeps Wait
// busy for the hour, and a self-rescheduling timer chain never returns —
// a host that serves such programs should bound them with a policy (the
// supervisor's wall deadline) or pump the loop itself instead of Wait.
func (a *AsyncRun) Wait() error {
	for a.Loop.Len() > 0 {
		if a.Finished() {
			if _, err := a.Result(); err != nil {
				break
			}
		}
		a.Loop.RunOne()
	}
	_, err := a.Result()
	return err
}

// RunToCompletion is Run + Wait.
func (a *AsyncRun) RunToCompletion() error {
	a.Run(nil)
	return a.Wait()
}

// Pause requests suspension at the next yield point (§2). Safe from any
// goroutine.
func (a *AsyncRun) Pause(onPause func()) { a.RT.Pause(onPause) }

// Resume continues a paused program. Safe from any goroutine.
func (a *AsyncRun) Resume() { a.RT.Resume() }

// Paused reports whether the program is parked at a yield point awaiting
// Resume. Safe from any goroutine.
func (a *AsyncRun) Paused() bool { return a.RT.Paused() }

// Kill gracefully terminates the program: it stops at its next yield point
// (immediately, if currently paused) and completes with reason — rt.ErrKilled
// when nil — which guest code cannot catch. Safe from any goroutine.
func (a *AsyncRun) Kill(reason error) { a.RT.Kill(reason) }

// ArmQuantum re-arms the cooperative quantum: RunConfig.OnQuantum fires
// after n more statements. Owner-goroutine only (call it between event-loop
// turns, never while another goroutine is pumping this run).
func (a *AsyncRun) ArmQuantum(n uint64) { a.In.ArmQuantum(n) }

// SetOnQuantum installs or replaces the quantum hook (owner-goroutine only).
func (a *AsyncRun) SetOnQuantum(fn func()) { a.In.SetOnQuantum(fn) }

// Steps reports statements executed so far (owner-goroutine only; a
// scheduler snapshots it between turns).
func (a *AsyncRun) Steps() uint64 { return a.In.Steps }

// MemUsed reports bytes the allocation meter has charged so far
// (owner-goroutine only; a scheduler snapshots it between turns).
func (a *AsyncRun) MemUsed() uint64 { return a.In.MemUsed() }

// TakeProfileFolded drains the profiler's folded-stack samples accumulated
// since the last drain — ";"-joined JS call stacks, root first, mapped to
// statement counts. Nil when nothing was sampled. Owner-goroutine only; a
// scheduler harvests between turns.
func (a *AsyncRun) TakeProfileFolded() map[string]uint64 { return a.In.TakeProfileFolded() }

// Finished reports whether the program has completed. Safe from any
// goroutine.
func (a *AsyncRun) Finished() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.finished
}

// Result returns the completion value and error. Safe from any goroutine.
func (a *AsyncRun) Result() (interp.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.result, a.err
}

// RunSource is a convenience: compile and run to completion, returning
// console output.
func RunSource(source string, opts Opts, cfg RunConfig) (string, error) {
	var buf bytes.Buffer
	if cfg.Out == nil {
		cfg.Out = &buf
	}
	c, err := Compile(source, opts)
	if err != nil {
		return "", err
	}
	run, err := c.NewRun(cfg)
	if err != nil {
		return "", err
	}
	err = run.RunToCompletion()
	return buf.String(), err
}

// RunRaw executes source without Stopify (the baseline denominator in every
// slowdown measurement), returning console output.
func RunRaw(source string, cfg RunConfig) (string, error) {
	bc, err := cfg.useBytecode()
	if err != nil {
		return "", err
	}
	prog, err := parser.Parse(source)
	if err != nil {
		return "", err
	}
	if err := resolve.Program(prog); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	out := cfg.Out
	if out == nil {
		out = &buf
	}
	clock := cfg.Clock
	if clock == nil {
		clock = eventloop.NewRealClock()
	}
	loop := eventloop.New(clock)
	in := interp.New(interp.Options{
		Engine: cfg.Engine, Clock: clock, Loop: loop, Out: out,
		Seed: cfg.Seed, Bytecode: bc, MaxSteps: cfg.MaxSteps, MemBudget: cfg.MemBudgetBytes,
	})
	// Raw execution has the browser's native eval: parse, resolve, and run
	// directly. The fragment's own statements execute in the dynamic global
	// frame; only functions within get slot frames.
	in.EvalHook = func(src string) (*ast.Program, error) {
		p, err := parser.Parse(src)
		if err != nil {
			return nil, err
		}
		return p, resolve.ProgramFrom(p, in.Sites())
	}
	if err := in.RunProgram(prog); err != nil {
		return buf.String(), err
	}
	loop.Run()
	return buf.String(), nil
}
