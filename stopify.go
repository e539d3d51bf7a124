// Package stopify is a Go reproduction of "Putting in All the Stops:
// Execution Control for JavaScript" (Baxter, Nigam, Politz, Krishnamurthi,
// Guha — PLDI 2018).
//
// Stopify is a JavaScript-to-JavaScript compiler that retrofits execution
// control onto the browser's single-threaded platform: given the output of
// any compiler targeting JavaScript, it produces a program that can be
// paused, resumed, stepped, gracefully terminated, run with an arbitrarily
// deep stack, and suspended across simulated blocking operations — by
// reifying first-class continuations through source instrumentation.
//
// This package is the public face of the library:
//
//	c, err := stopify.Compile(source, stopify.Options{
//	    Cont:            "checked",     // or "exceptional", "eager"
//	    Ctor:            "direct",      // or "wrapped"
//	    Timer:           "approx",      // or "exact", "countdown"
//	    YieldIntervalMs: 100,
//	    Implicits:       "none",        // sub-language: "none", "plus", "full"
//	    Args:            "none",        // "none", "varargs", "mixed", "full"
//	})
//	run, err := c.NewRun(stopify.RunConfig{Engine: stopify.Engines()["chrome"]})
//	run.Run(nil)               // starts on the event loop
//	run.Pause(func() { ... })  // the "stop button"
//	run.Resume()
//	run.Kill(nil)              // graceful, uncatchable termination
//	err = run.Wait()
//
// Per-run control scales to fleets: the execution supervisor schedules
// thousands of concurrent guest programs onto a bounded worker pool, using
// the same statement-boundary yield points as preemption points — each
// guest gets a step quantum, parks its own continuation when it expires,
// and requeues round-robin (with a weighted interactive lane), while
// per-tenant policies (wall-clock deadline, step budget, output cap) are
// enforced from outside the workers. This is the serving scenario: many
// mutually distrusting tenants, none able to starve or crash the host.
//
//	sup := stopify.NewSupervisor(stopify.SupervisorOptions{Workers: 4})
//	g, err := sup.Submit(stopify.Submission{Source: src})
//	res := g.Wait()            // output, error, steps, preemption counts
//
// cmd/stopifyd wraps the supervisor in an HTTP daemon (submit → poll →
// cancel), and `stopibench -supervisor` measures fleet throughput and
// scheduling-latency percentiles.
//
// The JavaScript engine substrate (parser, interpreter, browser-like cost
// profiles, event loop), the compilation pipeline (desugaring,
// A-normalization, boxing, the three continuation-instrumentation
// strategies of §3.2), the runtime (modes, estimators, segmented restore),
// the ten language profiles of Figure 5, the supervisor, and the full
// benchmark harness live under internal/; see DESIGN_interp.md and
// DESIGN_supervisor.md for the map.
package stopify

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/supervisor"
)

// Options mirrors the stopify() options object of Figure 1 in the paper.
type Options = core.Opts

// Compiled is a program processed by the Stopify pipeline.
type Compiled = core.Compiled

// AsyncRun is the execution handle of Figure 1: run, pause, resume,
// breakpoints, stepping.
type AsyncRun = core.AsyncRun

// RunConfig selects the host environment (engine profile, clock, output).
type RunConfig = core.RunConfig

// Engine is a browser-like performance profile.
type Engine = engine.Profile

// Defaults returns the default Options: checked-return continuations,
// desugared constructors, the sampling time estimator with a 100 ms yield
// interval, and the most restrictive (fastest) sub-language.
func Defaults() Options { return core.Defaults() }

// Compile runs source through the full Stopify pipeline: desugaring for the
// configured sub-language, A-normalization, boxing of captured assignable
// variables, and continuation instrumentation.
func Compile(source string, opts Options) (*Compiled, error) {
	return core.Compile(source, opts)
}

// RunSource compiles and runs source to completion, returning its console
// output.
func RunSource(source string, opts Options, cfg RunConfig) (string, error) {
	return core.RunSource(source, opts, cfg)
}

// RunRaw executes source without Stopify — the baseline in every slowdown
// measurement.
func RunRaw(source string, cfg RunConfig) (string, error) {
	return core.RunRaw(source, cfg)
}

// Engines returns the five browser-like cost profiles of the evaluation
// (chrome, edge, firefox, safari, chromebook).
func Engines() map[string]*Engine { return engine.Profiles() }

// Supervisor is the multi-tenant execution scheduler: N workers, M ≫ N
// guests, statement-quantum preemption, per-tenant resource policies.
type Supervisor = supervisor.Supervisor

// SupervisorOptions configures a Supervisor (pool size, admission bound,
// quantum, lane weighting, default policy).
type SupervisorOptions = supervisor.Options

// Submission describes one guest program for Supervisor.Submit.
type Submission = supervisor.SubmitOptions

// GuestPolicy is the per-tenant resource contract (deadline, step budget,
// output cap, scheduling lane).
type GuestPolicy = supervisor.Policy

// Guest is a supervised run: Wait/Kill/Pause/Resume/Inspect.
type Guest = supervisor.Guest

// NewSupervisor starts a supervisor and its worker pool.
func NewSupervisor(opts SupervisorOptions) *Supervisor { return supervisor.New(opts) }
