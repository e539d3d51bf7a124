package supervisor

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPreemptionParitySupervisor is preemption parity through the
// scheduler's pool: a program chopped into many tiny quanta — preempted,
// requeued, and resumed over and over by two workers — must print what it
// prints unpreempted. The programs are the parity rows of the conformance
// corpus, whose expected output is JavaScript's (an uncaught error as a last
// line "!Name: message"); internal/core's TestConformance runs them at every
// quantum through core's own re-arm cycle and through a one-worker
// supervisor that parks them.
func TestPreemptionParitySupervisor(t *testing.T) {
	files, err := filepath.Glob("../core/testdata/conformance/parity/*.js")
	if err != nil || len(files) == 0 {
		t.Fatalf("no parity rows: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(f, ".js") + ".out")
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".js")
		// A quantum of 25 statements is hundreds of preemptions a program;
		// the two rows whose captures must land inside a finally block and
		// inside a function that keeps its arguments pause at every yield
		// point there is, the second under each arity sub-language that
		// carries arguments across a capture.
		quantum, modes := uint64(25), []string{""}
		switch name {
		case "finallycapture":
			quantum = 1
		case "argsedge":
			quantum, modes = 1, []string{"varargs", "mixed", "full"}
		}
		for _, mode := range modes {
			sub := name
			submit := SubmitOptions{Source: string(src)}
			if mode != "" {
				sub += "-" + mode
				submit.Compile = core.Defaults()
				submit.Compile.Args, submit.Compile.YieldIntervalMs = mode, 0 // as Submit's own default has it
			}
			t.Run(sub, func(t *testing.T) {
				s := New(Options{Workers: 2, QuantumSteps: quantum})
				defer s.Close()
				g, err := s.Submit(submit)
				if err != nil {
					t.Fatal(err)
				}
				res := g.Wait()
				got := res.Output
				if res.Err != nil {
					got += "!" + res.Err.Error() + "\n"
				}
				if got != string(want) {
					t.Errorf("diverged under preemption:\n  quantum %d: %q\n  want:       %q", quantum, got, want)
				}
				if res.Err == nil && res.Preemptions < 5 {
					t.Errorf("only %d preemptions — quantum did not slice the run", res.Preemptions)
				}
			})
		}
	}
}
