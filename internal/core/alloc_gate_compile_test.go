package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/langs"
)

// The compile budgets are what compiling every internal/langs program once
// under its profile's options allocates once each compiles under only the
// options it uses (three runs: 292 932, 292 923 and 292 917 objects, 15.99 MB
// each time; 292 915 objects in 16.18 MB under the race detector), plus 0.5 %
// for map-growth jitter. Under every option its profile declares, it cost
// 321 472 objects in 17.40 MB (17.60 MB under the race detector). Half of `admit`'s
// guests are cold compiles and alloc_kb_per_guest has a 1 % bound, so a pass
// that builds a set per scope where a scan would do shows up here first.
// While the compile printed the program to measure it, the corpus cost
// 374 706 objects in 33.42 MB.
const (
	compileCorpusAllocs = 294_400
	compileCorpusBytes  = 16_270_000
)

// TestAllocGateCompile holds the compile pipeline's allocation count, in the
// style of internal/interp's alloc gates: a constant budget, GOMAXPROCS(1),
// the prelude (compiled once per option set and cached) warmed beforehand.
func TestAllocGateCompile(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	compileAll := func() {
		for _, p := range langs.All() {
			o := p.Opts(core.Defaults())
			for _, b := range p.Benchmarks {
				if _, err := core.Compile(b.Source, o); err != nil {
					t.Fatalf("%s/%s: %v", p.Name, b.Name, err)
				}
			}
		}
	}
	compileAll()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	compileAll()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("compiling the corpus: %d allocations, %.2f MB", allocs, float64(bytes)/1e6)
	if allocs > compileCorpusAllocs || bytes > compileCorpusBytes {
		t.Errorf("compiling the corpus allocated %d objects in %d bytes, budget %d in %d", allocs, bytes, compileCorpusAllocs, compileCorpusBytes)
	}
}
