package core_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rt"
)

// What a preemption costs, as exact statement counts. A guest is paused at
// every quantum expiry and resumed in place; the statements it executes
// beyond an unpreempted run of the same program are what the preemptions
// cost. The counts are deterministic, so the bounds below are not timing
// bounds: they fail when reinstating or unwinding a stack starts to depend
// on how deep the stack is.

// turns runs src to completion, pausing at every expiry of quantum and
// resuming in place (quantum 0: never preempted). It returns the output, the
// statements executed, the number of pauses and the most statements, charged
// or not, that one turn ran; between consecutive pauses it checks forward
// progress — a turn that was granted quantum normal-mode statements advances
// Steps by at least that many, or finishes.
func turns(t *testing.T, src string, quantum uint64) (out string, steps uint64, pauses int, longest uint64) {
	t.Helper()
	c, err := core.Compile(src, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, buf := mustStart(t, c, "")
	last := run.Steps()
	for pump(run, quantum) {
		pauses++
		adv := run.Steps() - last
		if adv < quantum {
			t.Fatalf("pause %d: Steps advanced %d in a turn granted %d", pauses, adv, quantum)
		}
		longest, last = max(longest, adv), run.Steps()
	}
	if _, err := run.Result(); err != nil {
		t.Fatalf("quantum %d: %v", quantum, err)
	}
	return buf.String(), run.Steps(), pauses, max(longest, run.Steps()-last)
}

func divrecSrc(depth int) string {
	return fmt.Sprintf(`
function build(n) { if (n === 0) { return null; } return {head: n, tail: build(n - 1)}; }
function div2(l) { if (l === null || l.tail === null) { return null; } return {head: l.head, tail: div2(l.tail.tail)}; }
function len(l) { if (l === null) { return 0; } return 1 + len(l.tail); }
var total = 0;
for (var r = 0; r < 40; r++) { total = total + len(div2(build(%d))); }
console.log("divrec", total);
`, depth)
}

// TestPreemptionCostDeepRecursion: a recursion that spends its whole life
// hundreds of frames deep (benchmark/README.md finding 1, 133 × at depth 400 before
// the quantum counted only progress) stays within a small constant of its
// unpreempted statement count, and that constant does not grow with depth.
func TestPreemptionCostDeepRecursion(t *testing.T) {
	for _, tc := range []struct {
		quantum uint64
		bound   float64
	}{{2000, 2.5}, {200, 4}} {
		var ratios []float64
		for _, depth := range []int{400, 1000} {
			src := divrecSrc(depth)
			want, base, _, _ := turns(t, src, 0)
			got, steps, pauses, _ := turns(t, src, tc.quantum)
			if got != want {
				t.Fatalf("depth %d quantum %d: output %q, unpreempted %q", depth, tc.quantum, got, want)
			}
			ratio := float64(steps) / float64(base)
			t.Logf("depth %d quantum %d: %d statements, %d unpreempted (%.2f x), %d preemptions",
				depth, tc.quantum, steps, base, ratio, pauses)
			if ratio > tc.bound {
				t.Errorf("depth %d quantum %d: %.2f x the unpreempted statements, bound %.1f x", depth, tc.quantum, ratio, tc.bound)
			}
			ratios = append(ratios, ratio)
		}
		if ratios[1] > 1.3*ratios[0] {
			t.Errorf("quantum %d: depth 1000 costs %.2f x, depth 400 %.2f x: preemption cost grows with depth",
				tc.quantum, ratios[1], ratios[0])
		}
	}
}

// TestPreemptionCostBottomOfStackLoop: a loop running under depth idle
// frames pays per preemption what it pays under twenty — the frames above
// the innermost segment are neither re-entered nor unwound again.
func TestPreemptionCostBottomOfStackLoop(t *testing.T) {
	perPreemption := func(depth int) float64 {
		src := fmt.Sprintf(`
function down(d) {
  if (d === 0) { var s = 0; for (var i = 0; i < 40000; i++) { s = (s + i) %% 9973; } return s; }
  return 1 + down(d - 1);
}
console.log(down(%d));
`, depth)
		want, base, _, _ := turns(t, src, 0)
		got, steps, pauses, _ := turns(t, src, 2000)
		if got != want {
			t.Fatalf("depth %d: output %q, unpreempted %q", depth, got, want)
		}
		if pauses < 20 {
			t.Fatalf("depth %d: only %d preemptions", depth, pauses)
		}
		extra := float64(steps-base) / float64(pauses)
		t.Logf("depth %d: %.0f extra statements per preemption (%d preemptions)", depth, extra, pauses)
		return extra
	}
	shallow := perPreemption(20)
	for _, depth := range []int{320, 1000} {
		if extra := perPreemption(depth); extra > 1.5*shallow {
			t.Errorf("depth %d: %.0f extra statements per preemption, %.0f at depth 20", depth, extra, shallow)
		}
	}
}

// TestPreemptionForwardProgress: at any quantum, however small against the
// stack, every turn runs its quantum of the guest's own statements (checked
// inside turns) and the guest finishes with its unpreempted output.
func TestPreemptionForwardProgress(t *testing.T) {
	src := divrecSrc(120)
	want, base, _, _ := turns(t, src, 0)
	for _, quantum := range []uint64{1, 25, 2000} {
		got, steps, pauses, _ := turns(t, src, quantum)
		if got != want {
			t.Errorf("quantum %d: output %q, unpreempted %q", quantum, got, want)
		}
		t.Logf("quantum %d: %d statements (%d unpreempted), %d pauses", quantum, steps, base, pauses)
	}
}

// TestPreemptionGuestCapturesAreCharged: only the scheduler's own captures and
// resumes run off the quantum. A guest that captures and reinstates its stack
// in a loop ($C is a global it can call) pays for every unwind and re-entry it
// causes, so a turn of it is as long as any other guest's turn: the quantum,
// the distance to the next yield point, and one preemption's machinery.
func TestPreemptionGuestCapturesAreCharged(t *testing.T) {
	const src = `
function down(d) {
  if (d === 0) { var s = 0; for (var i = 0; i < 3000; i++) { s = s + $C(function (k) { return k(1); }); } return s; }
  return 1 + down(d - 1);
}
console.log(down(40));
`
	const quantum = 2000
	want, base, _, _ := turns(t, src, 0)
	got, steps, pauses, longest := turns(t, src, quantum)
	if got != want {
		t.Fatalf("output %q, unpreempted %q", got, want)
	}
	t.Logf("%d statements (%d unpreempted), %d preemptions, longest turn %d", steps, base, pauses, longest)
	if pauses < int(base/quantum)/2 {
		t.Errorf("%d preemptions in %d statements at quantum %d: the guest's own captures ran off the clock", pauses, base, quantum)
	}
	if longest > 2*quantum {
		t.Errorf("a turn ran %d statements on a quantum of %d", longest, quantum)
	}
}

// TestKillMidRestoreDropsOuterFrames: a guest killed while only the
// innermost segment of its stack is back on the native stack dies with the
// callers that were waiting to be re-entered. A timer callback completing
// later must end its own turn, not return into the dead program's frames.
func TestKillMidRestoreDropsOuterFrames(t *testing.T) {
	c, err := core.Compile(`
setTimeout(function () { console.log("timer"); }, 1000);
function down(d) { if (d === 0) { for (;;) { spin = spin + 1; } } return 1 + down(d - 1); }
var spin = 0;
console.log(down(100));
console.log("the killed program went on");
`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Two turns: the descent, then one resumed inside the loop — a segment
	// on the stack, eighty-odd callers pending. The next pause request is
	// answered with the kill instead.
	run, buf := mustStart(t, c, "")
	for turn := 0; turn < 2; turn++ {
		if !pump(run, 5000) {
			t.Fatal("the guest did not park")
		}
	}
	run.ArmQuantum(5000)
	run.Resume()
	run.Kill(nil)
	run.Loop.Run()
	if _, err := run.Result(); !errors.Is(err, rt.ErrKilled) {
		t.Fatalf("result %v, want ErrKilled", err)
	}
	if got := buf.String(); got != "timer\n" {
		t.Fatalf("after the kill the realm printed %q, want only the timer's line", got)
	}
}
