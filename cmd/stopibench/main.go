// Command stopibench regenerates the paper's evaluation: every table and
// figure of §2 and §6, measured against this repository's substrates. It
// answers "what does the paper's figure look like here" and "does the fleet
// hold its SLO"; "did it get slower" belongs to `go run ./benchmark`.
//
//	stopibench                        # run everything at full settings
//	stopibench -quick                 # fast smoke pass
//	stopibench -fig 2c                # one experiment (5 2a 2b 2c 7 10 11 12 13 14 15 strawmen codesize ablation-guards)
//	stopibench -repeats 10            # paper-grade repetition
//	stopibench -supervisor -arrival-rate 150 -duration 10s
//	                                  # sustained open-loop load (4 workers, windowed P99): prints the
//	                                  # report, leaves a Chrome trace post-mortem under $TMPDIR
//	                                  # (-trace-out overrides) and fails past the SLO's two bounds
//	stopibench -supervisor -arrival-rate 150 -duration 10s -supervisor-bench BENCH_supervisor.json
//	                                  # ...and appends the run to the committed trajectory
//	stopibench -profile               # where do the figure benchmarks' statements go?
//	                                  # guest-level sampling profile, top-10 tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/supervisor"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "experiment to run (see Experiments in internal/bench)")
		quick   = flag.Bool("quick", false, "small workloads, single repetition")
		repeats = flag.Int("repeats", 0, "timed runs per data point (default 5, paper uses 10)")

		supFlag     = flag.Bool("supervisor", false, "run the sustained open-loop supervisor load harness, fail past the SLO's bounds, and exit")
		supBench    = flag.String("supervisor-bench", "", "append the -supervisor result to this JSON trajectory file (BENCH_supervisor.json)")
		arrivalRate = flag.Float64("arrival-rate", 0, "open-loop arrival rate in guests/sec for -supervisor (0 = the harness default)")
		duration    = flag.Duration("duration", 10*time.Second, "generation period for the open-loop harness")
		maxResident = flag.Int("supervisor-max-resident", 0, "MaxResident for the load harness (0 = workers*8, forcing park/restore on the hot path; negative = unbounded)")

		profFlag   = flag.Bool("profile", false, "profile the Octane/Kraken-like figure suites with the guest-level sampling profiler and exit")
		profEvery  = flag.Uint64("profile-every", 0, "sampling period in statements for -profile and the load harness (0 = 1000 for -profile, off for the harness)")
		traceOut   = flag.String("trace-out", "", "write the load harness's flight-recorder trace (Chrome trace-event JSON) here instead of under $TMPDIR")
		profileOut = flag.String("profile-out", "", "write the load harness's per-tenant folded-stack profile here (needs -profile-every)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}

	switch {
	case *profFlag:
		exitOn(runProfileMode(*profEvery))
	case *supFlag:
		loadCfg := supervisor.LoadConfig{
			ArrivalRate:  *arrivalRate,
			Duration:     *duration,
			MaxResident:  *maxResident,
			ProfileEvery: *profEvery,
			TraceOut:     *traceOut,
			ProfileOut:   *profileOut,
		}
		if loadCfg.ProfileOut != "" && loadCfg.ProfileEvery == 0 {
			exitOn(fmt.Errorf("-profile-out needs -profile-every > 0 (nothing would be sampled)"))
		}
		if loadCfg.TraceOut == "" {
			// Every run leaves a post-mortem: when the gate trips on a CI
			// machine nobody can attach to, the flight recorder's last ring
			// is the evidence.
			loadCfg.TraceOut = filepath.Join(os.TempDir(), "stopibench-load.trace.json")
		}
		exitOn(runSupervisorLoad(loadCfg, *supBench))
	case *fig == "all":
		out, err := bench.RunAll(cfg)
		fmt.Print(out)
		exitOn(err)
	default:
		var ids []string
		for _, e := range bench.Experiments {
			if e.ID == *fig {
				out, err := e.Run(cfg)
				fmt.Print(out)
				exitOn(err)
				return
			}
			ids = append(ids, e.ID)
		}
		exitOn(fmt.Errorf("unknown figure %q; choose from %v", *fig, ids))
	}
}

// exitOn ends the command with status 1 when err is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stopibench:", err)
		os.Exit(1)
	}
}

// supervisorTrajectory is the schema of BENCH_supervisor.json: an appendable
// series of dated sustained-load runs. Each entry records its own config
// (inside the result block), so the file can mix runs across machines and
// PRs without losing comparability. Entries stay raw until read: appending
// rewrites the file, and earlier entries are history, kept as captured even
// where they carry fields this version no longer knows.
type supervisorTrajectory struct {
	Entries []json.RawMessage `json:"entries"`
}

// supervisorTrajEntry is one measurement.
type supervisorTrajEntry struct {
	CapturedAt string                 `json:"captured_at"`
	GoVersion  string                 `json:"go_version"`
	Kind       string                 `json:"kind"` // "load"
	Load       *supervisor.LoadResult `json:"load,omitempty"`
}

// readTrajectory loads a trajectory file. A missing file is an empty
// trajectory (capture bootstraps it).
func readTrajectory(path string) (*supervisorTrajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &supervisorTrajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	var traj supervisorTrajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &traj, nil
}

// appendTrajectory adds one entry to the trajectory at path, creating the
// file if needed.
func appendTrajectory(path string, e supervisorTrajEntry) error {
	traj, err := readTrajectory(path)
	if err != nil {
		return err
	}
	e.CapturedAt = time.Now().UTC().Format(time.RFC3339)
	e.GoVersion = runtime.Version()
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	traj.Entries = append(traj.Entries, raw)
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// The SLO -supervisor gates on. The gate is a smoke alarm for CI, not a
// microbenchmark: the bounds absorb the spread between machines (the
// committed trajectory's entries read 1.9 ms and 0 on the machine that
// captured them) while still catching the regressions that matter — a
// scheduling cliff lands at ten times the bound, not 1.1 times.
const (
	sloP99Ms   = 250.0 // worst-window P99 scheduling latency
	sloErrRate = 0.01  // unexpected outcomes, stragglers and rejects over admissions
)

// runSupervisorLoad executes the sustained open-loop harness, appends the run
// to the trajectory at benchPath when one is given, and fails when its
// windowed P99 scheduling latency or its error rate is past the SLO.
// Unexpected guest outcomes (wrong output, an unasked-for error) fail it
// before anything is recorded — a latency number over corrupted tenants would
// be worthless. Overload symptoms are recorded: an open-loop harness pushed
// past the machine's capacity reports rejects, stragglers and a blown-up
// windowed P99 honestly, and then fails the gate.
func runSupervisorLoad(cfg supervisor.LoadConfig, benchPath string) error {
	res, err := supervisor.RunLoad(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	fmt.Printf("flight-recorder trace: %s\n", cfg.TraceOut)
	if res.Unexpected > 0 {
		return fmt.Errorf("sustained load: %d guests with unexpected outcomes: %s",
			res.Unexpected, res.FirstUnexpected)
	}
	if benchPath != "" {
		if err := appendTrajectory(benchPath, supervisorTrajEntry{Kind: "load", Load: res}); err != nil {
			return err
		}
	}

	fmt.Println("SLO:")
	fmt.Printf("  worst-window P99 %8.2f ms  gate %8.2f ms\n", res.WorstWindowP99, sloP99Ms)
	fmt.Printf("  error rate       %8.4f     gate %8.4f\n", res.ErrorRate, sloErrRate)
	var failures []string
	if res.WorstWindowP99 > sloP99Ms {
		failures = append(failures, fmt.Sprintf(
			"worst-window P99 sched latency %.2f ms exceeds gate %.2f ms", res.WorstWindowP99, sloP99Ms))
	}
	if res.ErrorRate > sloErrRate {
		failures = append(failures, fmt.Sprintf(
			"error rate %.4f exceeds gate %.4f (%d stragglers, %d rejected)",
			res.ErrorRate, sloErrRate, res.Stragglers, res.Rejected))
	}
	if len(failures) > 0 {
		return fmt.Errorf("supervisor SLO regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("within SLO")
	return nil
}
