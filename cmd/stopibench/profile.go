package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/langs"
)

// -profile mode: run the Octane-like and Kraken-like figure suites under the
// guest-level sampling profiler and print a top-ten table of where each
// benchmark's statements go, attributed to the guest's own JavaScript
// function names. This is the figure-benchmark counterpart of stopifyd's GET
// /profile — the question it answers is "which guest function is hot", not
// "which Go function is hot" (that is -pprof-addr on the daemon, or go test
// -cpuprofile here).

// defaultProfileEvery is the sampling period when -profile-every is not set:
// fine enough that the shortest Kraken-like kernel still collects hundreds of
// samples, coarse enough to keep sampling overhead in the noise.
const defaultProfileEvery = 1000

// profileRow is one function's aggregate across a benchmark's folded stacks.
type profileRow struct {
	name string
	self uint64 // statements attributed while the function was the leaf
	cum  uint64 // statements attributed while it was anywhere on the stack
}

// foldProfile turns a folded-stack map into per-function self/cumulative
// rows plus the total sampled weight. Cumulative counts each function once
// per stack, so recursion does not double-count.
func foldProfile(folded map[string]uint64) ([]profileRow, uint64) {
	self := map[string]uint64{}
	cum := map[string]uint64{}
	var total uint64
	for stack, n := range folded {
		total += n
		frames := strings.Split(stack, ";")
		self[frames[len(frames)-1]] += n
		seen := map[string]bool{}
		for _, f := range frames {
			if !seen[f] {
				seen[f] = true
				cum[f] += n
			}
		}
	}
	rows := make([]profileRow, 0, len(self))
	for name := range cum {
		rows = append(rows, profileRow{name: name, self: self[name], cum: cum[name]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		if rows[i].cum != rows[j].cum {
			return rows[i].cum > rows[j].cum
		}
		return rows[i].name < rows[j].name
	})
	return rows, total
}

// profileOne compiles and runs one benchmark source with the sampler armed
// and returns its folded profile.
func profileOne(src string, every uint64) (map[string]uint64, error) {
	js := langs.JavaScript()
	c, err := core.Compile(src, js.Opts(core.Defaults()))
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	run, err := c.NewRun(core.RunConfig{
		Clock:        eventloop.NewVirtualClock(),
		ProfileEvery: every,
	})
	if err != nil {
		return nil, err
	}
	if err := run.RunToCompletion(); err != nil {
		return nil, err
	}
	return run.TakeProfileFolded(), nil
}

// profileTop is how many functions each benchmark's table lists.
const profileTop = 10

// runProfileMode is stopibench -profile: the full Octane-like + Kraken-like
// suite, each benchmark reported as a top-profileTop self/cumulative table
// over sampled statements.
func runProfileMode(every uint64) error {
	if every == 0 {
		every = defaultProfileEvery
	}
	suite := append(langs.OctaneLike(), langs.KrakenLike()...)
	fmt.Printf("== sampling every %d statements ==\n", every)
	for _, b := range suite {
		folded, err := profileOne(b.Source, every)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		rows, total := foldProfile(folded)
		fmt.Printf("\n%s (%d sampled statements, %d functions):\n", b.Name, total, len(rows))
		fmt.Printf("  %-28s %12s %6s %12s %6s\n", "function", "self", "self%", "cum", "cum%")
		for i, r := range rows {
			if i >= profileTop {
				break
			}
			fmt.Printf("  %-28s %12d %5.1f%% %12d %5.1f%%\n",
				r.name, r.self, pct(r.self, total), r.cum, pct(r.cum, total))
		}
	}
	fmt.Println()
	return nil
}

func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
