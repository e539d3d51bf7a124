package langs

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
)

// TestBenchmarksRunRaw verifies every benchmark runs and prints a
// deterministic, non-empty checksum line starting with its name.
func TestBenchmarksRunRaw(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, b := range p.Benchmarks {
				out, err := core.RunRaw(b.Source, core.RunConfig{Clock: eventloop.NewVirtualClock(), Seed: 1})
				if err != nil {
					t.Errorf("%s/%s failed: %v", p.Name, b.Name, err)
					continue
				}
				if !strings.HasPrefix(out, b.Name+" ") && !strings.HasPrefix(out, b.Name+"\n") {
					t.Errorf("%s/%s output should start with its name: %q", p.Name, b.Name, out)
				}
				out2, err := core.RunRaw(b.Source, core.RunConfig{Clock: eventloop.NewVirtualClock(), Seed: 1})
				if err != nil || out2 != out {
					t.Errorf("%s/%s is not deterministic", p.Name, b.Name)
				}
			}
		})
	}
}

func TestSuiteShape(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("expected 10 profiles, got %d", len(all))
	}
	if n := TotalBenchmarks(); n < 80 {
		t.Errorf("suite too small: %d benchmarks", n)
	}
	if ByName("python") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
	if len(OctaneLike()) < 4 || len(KrakenLike()) < 4 {
		t.Error("octane/kraken suites too small")
	}
}
