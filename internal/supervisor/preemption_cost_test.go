package supervisor

import (
	"testing"

	"repro/internal/core"
	"repro/internal/langs"
)

// What time-slicing costs under the supervisor, in statements: a guest
// sliced at the default quantum executes the statements of its unbounded
// run plus, per preemption, one unwind of its live frames and one re-entry
// of its innermost segment. Steps are deterministic, so these are exact
// counts, not timings.

// stepsUnder runs src alone on a one-worker supervisor at the given quantum
// (0: the default) and returns its result.
func stepsUnder(t *testing.T, src string, opts core.Opts, quantum uint64) Result {
	t.Helper()
	s := New(Options{Workers: 1, QuantumSteps: quantum})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: src, Compile: opts})
	if err != nil {
		t.Fatal(err)
	}
	return g.Wait()
}

// TestPreemptionCostLangsCatalogue: every catalogue program long enough to
// be sliced a few dozen times (35 000–600 000 statements unpreempted)
// finishes within 1.6 x those statements at the default quantum, whatever
// its stack does. When the quantum also paid for re-entering the stack, six
// of them took 11 to 103 x (scala.list_ops, ocaml.sieve_rec, scheme.divrec,
// scheme.primes, scheme.mergesort, scala.fold_sum).
func TestPreemptionCostLangsCatalogue(t *testing.T) {
	const unbounded = 1 << 62
	checked, worst, worstName := 0, 0.0, ""
	for _, p := range langs.All() {
		opts := p.Opts(core.Defaults())
		opts.YieldIntervalMs = 0 // the quantum, not a timer, drives preemption
		for _, b := range p.Benchmarks {
			whole := stepsUnder(t, b.Source, opts, unbounded)
			if whole.Err != nil {
				t.Fatalf("%s.%s unbounded: %v", p.Name, b.Name, whole.Err)
			}
			if whole.Steps < 35_000 || whole.Steps > 600_000 {
				continue
			}
			sliced := stepsUnder(t, b.Source, opts, 0)
			if sliced.Err != nil || sliced.Output != whole.Output {
				t.Errorf("%s.%s: sliced run printed %q (%v), unbounded %q", p.Name, b.Name, sliced.Output, sliced.Err, whole.Output)
				continue
			}
			checked++
			ratio := float64(sliced.Steps) / float64(whole.Steps)
			if ratio > worst {
				worst, worstName = ratio, p.Name+"."+b.Name
			}
			if ratio > 1.6 {
				t.Errorf("%s.%s: %d statements at the default quantum, %d unbounded (%.2f x, %d preemptions)",
					p.Name, b.Name, sliced.Steps, whole.Steps, ratio, sliced.Preemptions)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d catalogue programs fell in the statement range", checked)
	}
	t.Logf("%d programs; worst %.2f x (%s)", checked, worst, worstName)
}

// sliceGuests are the six guests of the benchmark's timeslice epoch
// (benchmark/guests.go, K = 1): recursion on stacks up to 330 frames deep.
var sliceGuests = []string{
	`function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log("fib", fib(18) + 1);`,
	`function tak(x, y, z) { if (y >= x) { return z; } return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y)); }
console.log("tak", tak(15, 10, 5) + 1);`,
	`function build(n) { if (n === 0) { return null; } return {head: n, tail: build(n - 1)}; }
function div2(l) { if (l === null || l.tail === null) { return null; } return {head: l.head, tail: div2(l.tail.tail)}; }
function len(l) { if (l === null) { return 0; } return 1 + len(l.tail); }
var total = 0;
for (var r = 0; r < 60; r++) { total = total + len(div2(build(60))); }
console.log("divrec", total + 1);`,
	`function make(d) { if (d === 0) { return {left: null, right: null}; } return {left: make(d - 1), right: make(d - 1)}; }
function check(t) { if (t.left === null) { return 1; } return 1 + check(t.left) + check(t.right); }
var total = 0;
for (var r = 0; r < 4; r++) { total = total + check(make(9)); }
console.log("trees", total + 1);`,
	`function ack(m, n) { if (m === 0) { return n + 1; } if (n === 0) { return ack(m - 1, 1); } return ack(m - 1, ack(m, n - 1)); }
var total = 0;
for (var r = 0; r < 6; r++) { total = total + ack(2, 25); }
console.log("ack", total + 1);`,
	`function even(n) { if (n === 0) { return 1; } return odd(n - 1); }
function odd(n) { if (n === 0) { return 0; } return even(n - 1); }
var total = 0;
for (var r = 0; r < 30; r++) { total = total + even(300 + r); }
console.log("parity", total + 1);`,
}

// TestTimesliceEpochPreemptions pins how often the six-guest epoch is
// preempted when all six share one worker at the default quantum. A quantum
// is 2000 statements of a guest's own progress, so the count is a property
// of the guests alone: it moves only when the quantum clock changes what it
// charges, which is what this test is here to show.
func TestTimesliceEpochPreemptions(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	var guests []*Guest
	for _, src := range sliceGuests {
		g, err := s.Submit(SubmitOptions{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		guests = append(guests, g)
	}
	preemptions, steps := 0, uint64(0)
	for _, g := range guests {
		res := g.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		preemptions += res.Preemptions
		steps += res.Steps
	}
	t.Logf("%d preemptions, %d statements", preemptions, steps)
	if want := 485; preemptions != want {
		t.Errorf("the epoch was preempted %d times, pinned at %d", preemptions, want)
	}
}
