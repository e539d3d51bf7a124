package interp_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
)

// TestAllocGatePreemption is the tripwire for what one preemption may cost
// the heap, measured as TestAllocGateRealm measures a realm: TotalAlloc
// around the whole run at GOMAXPROCS(1), the least of several tries. fib(18)
// is paused at every expiry of a 2000-statement quantum and resumed in
// place; what it allocates beyond an unpreempted run, per pause, is one
// capture and one reinstatement of its stack — one frame array each. A frame
// that drags a closure and the activation's environment with it (19.9 KB
// here, when frames carried reenter thunks), that grew an element, or that
// saves a dead local fails here, not in the benchmark.
func TestAllocGatePreemption(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := core.Compile(`function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log("fib", fib(18));`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	runBytes := func(quantum uint64) (least uint64, pauses int) {
		least = math.MaxUint64
		for try := 0; try < 8; try++ {
			var before, after runtime.MemStats
			var buf bytes.Buffer
			var run *core.AsyncRun
			runtime.ReadMemStats(&before)
			run, err := c.NewRun(core.RunConfig{
				Clock: eventloop.NewVirtualClock(), Out: &buf,
				OnQuantum: func() { run.Pause(nil) },
			})
			if err != nil {
				t.Fatal(err)
			}
			run.ArmQuantum(quantum)
			run.Run(nil)
			pauses = 0
			for {
				if run.Paused() {
					pauses++
					run.ArmQuantum(quantum)
					run.Resume()
				}
				if !run.Loop.RunOne() && !run.Paused() {
					break
				}
			}
			runtime.ReadMemStats(&after)
			if _, err := run.Result(); err != nil || buf.String() != "fib 2584\n" {
				t.Fatalf("quantum %d: printed %q, %v", quantum, buf.String(), err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least, pauses
	}
	whole, _ := runBytes(0)
	sliced, pauses := runBytes(2000)
	if pauses < 50 {
		t.Fatalf("only %d preemptions; the quantum is not engaging", pauses)
	}
	per := float64(sliced-whole) / float64(pauses)
	t.Logf("unpreempted %d bytes, preempted %d bytes over %d preemptions: %.0f bytes each", whole, sliced, pauses, per)
	// 4.4 KB here, 5.6 under the race detector, which empties pools (8.1
	// and 9.9 while a frame was a {label, locals, fn, self} object holding
	// every local, 10.3 and 12.6 with 160-byte object headers and 48-byte
	// property slots).
	if per > 6<<10 {
		t.Errorf("%.0f bytes per preemption, gate 6 KB: a captured frame is carrying more than [label, fn, self] and the locals live across its call site", per)
	}
}
