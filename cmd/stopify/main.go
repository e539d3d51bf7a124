// Command stopify compiles and runs JavaScript with execution control, the
// CLI face of the library:
//
//	stopify -compile program.js        # print instrumented JavaScript
//	stopify program.js                 # compile and run to completion
//	stopify -engine edge -cont checked program.js
//	stopify -deep -engine firefox deep_recursion.js
//	stopify -repl                      # suspendable REPL (§6.4)
//	stopify -repl program.js           # the same, after running program.js
//
// Flags mirror the stopify() options object of Figure 1 in the paper.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

func main() {
	var (
		compileOnly = flag.Bool("compile", false, "print instrumented JavaScript instead of running")
		engineName  = flag.String("engine", "chrome", "engine profile: chrome, edge, firefox, safari, chromebook, or none (no cost model and a 100 000-frame stack, as the daemon runs)")
		cont        = flag.String("cont", "checked", "continuation strategy: checked, exceptional, eager")
		ctor        = flag.String("ctor", "direct", "constructor strategy: direct, wrapped")
		timer       = flag.String("timer", "approx", "time estimator: exact, countdown, approx")
		interval    = flag.Float64("interval", 100, "yield interval in ms (0 disables)")
		implicits   = flag.String("implicits", "none", "implicit conversions: none, plus, full")
		args        = flag.String("args", "none", "arguments sub-language: none, varargs, mixed, full")
		getters     = flag.Bool("getters", false, "instrument getters/setters")
		evalOn      = flag.Bool("eval", false, "stopify eval'd code")
		deep        = flag.Bool("deep", false, "simulate an arbitrarily deep stack")
		seed        = flag.Uint64("seed", 1, "Math.random seed")
		raw         = flag.Bool("raw", false, "run without Stopify (baseline)")
		repl        = flag.Bool("repl", false, "interactive suspendable REPL")
	)
	flag.Parse()

	var src string
	var err error
	if !*repl || flag.NArg() > 0 {
		src, err = readSource(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
	}
	prof := engine.Profiles()[*engineName]
	if prof == nil && *engineName != "none" {
		fatal(fmt.Errorf("unknown engine %q", *engineName))
	}

	cfg := core.RunConfig{Engine: prof, Out: os.Stdout, Seed: *seed}
	if *raw {
		if _, err := core.RunRaw(src, cfg); err != nil {
			fatal(err)
		}
		return
	}

	opts := core.Opts{
		Cont:            *cont,
		Ctor:            *ctor,
		Timer:           *timer,
		YieldIntervalMs: *interval,
		Implicits:       *implicits,
		Args:            *args,
		Getters:         *getters,
		Eval:            *evalOn,
		DeepStacks:      *deep,
		Suspend:         true,
	}
	compile := core.Compile
	if *repl {
		compile = core.CompileREPL
	}
	compiled, err := compile(src, opts)
	if err != nil {
		fatal(err)
	}
	if *compileOnly {
		fmt.Print(compiled.Source())
		return
	}
	run, err := compiled.NewRun(cfg)
	if err != nil {
		fatal(err)
	}
	if *repl {
		runREPL(run)
		return
	}
	if err := run.RunToCompletion(); err != nil {
		fatal(err)
	}
}

// runREPL reads lines, evaluates each as a suspendable turn, and prints the
// completion value. Ctrl-D exits.
func runREPL(run *core.AsyncRun) {
	if err := run.RunToCompletion(); err != nil {
		fatal(err)
	}
	fmt.Println("stopify repl — each line runs under execution control; ctrl-D exits")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("js> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := run.EvalAndWait(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if !v.IsUndefined() {
			fmt.Println("=>", run.In.Display(v))
		}
	}
}

func readSource(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stopify:", err)
	os.Exit(1)
}
