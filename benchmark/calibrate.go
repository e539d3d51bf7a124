package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"

	"repro/internal/stats"
)

// calibrate is the -aa mode: the same code measured as if it were two
// commits. It runs the whole suite N times as set A and N times as set B,
// alternating which goes first, each run a fresh process with a seed of its
// own, exactly as the driver compares a change with its parent. For every
// metric and workload it prints the two medians, how much worse the worse
// one is, each set's spread (interquartile range over median), how far the
// furthest single run lies from its set's median, and the bound; it fails
// if a gap or a spread exceeds its bound. The bounds in endToEnd were read
// off this table.
func calibrate(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	printEnv()
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	seed := cfg.seed
	for i := 0; i < cfg.aa; i++ {
		for j := 0; j < 2; j++ {
			set := (i + j) % 2 // A first on even passes, B first on odd
			for _, w := range workloads {
				seed++
				args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(cfg.seconds)}
				if cfg.quick {
					args = append(args, "-quick")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: reading the result line: %w", w.name, seed, err)
				}
				for name, m := range res.Metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "pass %d/%d set %c %s seed %d:", i+1, cfg.aa, 'A'+set, w.name, seed)
				for _, e := range endToEnd {
					fmt.Fprintf(os.Stderr, " %s %.5g", e.name, res.Metrics[e.name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	fmt.Printf("same-code calibration: %d runs per set, %d s each\n", cfg.aa, cfg.seconds)
	fmt.Printf("%-10s %-20s %12s %12s %7s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "far", "bound")
	failures := 0
	for _, w := range workloads {
		for _, e := range endToEnd {
			k := key{w.name, e.name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := stats.Median(a), stats.Median(b)
			// The gap is how much worse the worse set's median is.
			gap := (mb - ma) / ma
			if gap < 0 {
				gap = (ma - mb) / mb
			}
			far := 0.0
			for _, set := range [][]float64{a, b} {
				med := stats.Median(set)
				for _, v := range set {
					if d := math.Abs(v-med) / med; d > far {
						far = d
					}
				}
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := ""
			// setup_s is exempt from the spread rule, as in the driver.
			if gap > e.bound || (e.name != "setup_s" && (sa > e.bound || sb > e.bound)) {
				verdict = "  FAIL"
				failures++
			}
			fmt.Printf("%-10s %-20s %12.4f %12.4f %6.2f%% %7.2f%% %7.2f%% %7.2f%% %5.1f%%%s\n",
				w.name, e.name, ma, mb, 100*gap, 100*sa, 100*sb, 100*far, 100*e.bound, verdict)
		}
	}
	if failures > 0 && !cfg.quick {
		return fmt.Errorf("%d of %d metric-workload pairs outside their bounds", failures, len(workloads)*len(endToEnd))
	}
	return nil
}
