// Command benchmark is the repository's one repeatable benchmark: four
// closed-loop workloads, four end-to-end metrics that are floors, ratios or
// exact counts, and an outside-in table of per-layer costs. README.md in
// this directory defines every metric and says which layer should move
// which number on which workload.
//
//	go run ./benchmark -workload admit -seed 7            # one workload
//	go run ./benchmark -workload admit -seed 7 -trace 1   # its layer table
//	go run ./benchmark -aa 5                              # same-code calibration
//	go test ./benchmark/                                  # the harness's own tests
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is the command line.
type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	quick      bool
	aa         int
	golden     bool
	spec       bool
	setupChild bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: kernels, admit, timeslice or migrate (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs: literals and guest order")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "size of the measured phase, in seconds at the commit that added the benchmark")
	flag.IntVar(&cfg.trace, "trace", 0, "1: record spans, write the Chrome trace and report the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke run: two rounds, one set-up child")
	flag.IntVar(&cfg.aa, "aa", 0, "same-code calibration: run the suite N times as set A and N times as set B")
	flag.BoolVar(&cfg.golden, "update-golden", false, "regenerate testdata/golden from the kernels' agreed outputs")
	flag.BoolVar(&cfg.spec, "spec", false, "print BENCHMARK.json from the program's own tables")
	flag.BoolVar(&cfg.setupChild, strings.TrimPrefix(setupChildFlag, "-"), false, "internal: do one cold start and exit")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if refusedBuild != "" {
		return fmt.Errorf("built with -tags %s, which changes what the guests' hot path does; build without it", refusedBuild)
	}
	hygiene()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 1 {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if cfg.spec {
		return printSpec()
	}
	if cfg.golden {
		return updateGolden()
	}
	if cfg.aa > 0 {
		return calibrate(cfg)
	}
	selected := workloads
	if cfg.workload != "" {
		w := workloadByName(cfg.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		selected = []*workload{w}
	}
	if cfg.setupChild {
		if len(selected) != 1 {
			return fmt.Errorf("%s needs -workload", setupChildFlag)
		}
		return coldStart(selected[0], cfg.seed)
	}
	printEnv()
	var last result
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		last = res
	}
	if len(selected) == 1 {
		// The driver's contract: the last line of standard output is the
		// result as one JSON object.
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !last.Correct {
		return fmt.Errorf("outputs were wrong")
	}
	return nil
}

// result is what one workload run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs one workload: untraced for the end-to-end metrics, or
// traced for the layer table.
func runWorkload(w *workload, cfg config) (result, error) {
	rounds, children, deadline := w.rounds(cfg.seconds), setupChildren, 3*time.Duration(cfg.seconds)*time.Second
	if cfg.quick {
		rounds, children = 2, 1
	}
	if cfg.trace == 1 {
		return runTraced(w, cfg, rounds)
	}
	setup, err := measureSetup(w, cfg.seed, children)
	if err != nil {
		return result{}, err
	}
	r, err := w.openSeed(cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	p := measure(r, rounds, deadline, nil)
	guestMs, guestsPerS, slowdown := p.rec.timings()
	values := map[string]float64{
		"setup_s":  setup,
		"guest_ms": guestMs,
		"slowdown": slowdown,
		// Exact, so it moves only when the code allocates differently.
		"alloc_kb_per_guest": float64(p.allocBytes) / 1024 / float64(p.rec.guests),
	}

	fmt.Printf("workload %s  seed %d  rounds %d  measured %.1fs  GOMAXPROCS %d\n",
		w.name, cfg.seed, p.rounds, p.wall.Seconds(), runtime.GOMAXPROCS(0))
	m := map[string]metric{}
	for _, e := range endToEnd {
		m[e.name] = metric{values[e.name], e.unit}
		fmt.Printf("  %-20s %12.4f %s\n", e.name, values[e.name], e.unit)
	}
	// Not an end-to-end metric (its floor moved 25 % between runs of the
	// same code); the layer table lists it as workload.guests_per_s.
	fmt.Printf("  %-20s %12.4f 1/s\n", "guests_per_s", guestsPerS)
	fmt.Printf("  %-20s %12d\n  %-20s %12d\n", "ops", p.rec.ops, "failed", p.rec.failed)
	if p.rec.failed > 0 {
		fmt.Printf("  first failure: %s\n", p.rec.firstFailure)
	}
	return result{Correct: p.rec.failed == 0, Attempted: p.rec.ops, Failed: p.rec.failed, Metrics: m}, nil
}

// hygiene removes what the environment could change about the measured
// code: the engine override is unset so the library's default engine runs,
// and the collector runs at its default settings whatever GOGC and
// GOMEMLIMIT say.
func hygiene() {
	os.Unsetenv("STOPIFY_BACKEND")
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

// printEnv records the machine state a reader needs to judge the numbers.
func printEnv() {
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			load = f[0]
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env  go %s  nproc %d  load1 %s  commit %s\n", runtime.Version(), runtime.NumCPU(), load, commit)
}
