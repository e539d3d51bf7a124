package core

import (
	"strings"
	"testing"

	"repro/internal/eventloop"
)

// profileSrc keeps most statements inside two named functions so the
// sampler must attribute them by name; crunch dominates.
const profileSrc = `
function crunch(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s += i * i; }
  return s;
}
function driver() {
  var t = 0;
  for (var k = 0; k < 60; k++) { t += crunch(200); }
  return t;
}
console.log(driver());
`

func profileRun(t *testing.T, backend string) map[string]uint64 {
	t.Helper()
	c, err := Compile(profileSrc, Defaults())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	run, err := c.NewRun(RunConfig{
		Clock:        eventloop.NewVirtualClock(),
		Backend:      backend,
		ProfileEvery: 97,
	})
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return run.TakeProfileFolded()
}

// TestProfileNamesGuestFunctions is the profiler's ground truth: on both
// engines the folded stacks must name the user's own JS functions, and the
// hot function must carry the bulk of the attributed statements.
func TestProfileNamesGuestFunctions(t *testing.T) {
	for _, backend := range []string{BackendTree, BackendBytecode} {
		t.Run(backend, func(t *testing.T) {
			folded := profileRun(t, backend)
			if len(folded) == 0 {
				t.Fatal("profiler returned no samples")
			}
			var total, inCrunch uint64
			sawDriver := false
			for stack, n := range folded {
				total += n
				if strings.Contains(stack, "crunch") {
					inCrunch += n
				}
				if strings.Contains(stack, "driver") {
					sawDriver = true
				}
			}
			if !sawDriver {
				t.Errorf("no stack mentions driver; folded = %v", folded)
			}
			if inCrunch*2 < total {
				t.Errorf("crunch holds %d of %d sampled statements; want a majority\nfolded = %v",
					inCrunch, total, folded)
			}
			// Stacks must be root-first: crunch only ever runs under driver.
			for stack := range folded {
				ci := strings.Index(stack, "crunch")
				di := strings.Index(stack, "driver")
				if ci >= 0 && di > ci {
					t.Errorf("stack %q lists crunch before its caller driver", stack)
				}
			}
		})
	}
}

// TestProfileDrainAndRearm checks TakeProfileFolded's drain semantics and
// that a disabled profiler stays silent.
func TestProfileDrainAndRearm(t *testing.T) {
	c, err := Compile(profileSrc, Defaults())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := run.TakeProfileFolded(); got != nil {
		t.Errorf("profiler was never armed, yet produced samples: %v", got)
	}
}
