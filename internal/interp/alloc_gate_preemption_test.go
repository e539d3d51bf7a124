package interp_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
)

// bytesPerPreemption measures what one preemption costs the heap, as
// TestAllocGateRealm measures a realm: TotalAlloc around the whole run at
// GOMAXPROCS(1), the least of several tries. src is paused at every expiry
// of a 2000-statement quantum and resumed in place; what it allocates beyond
// an unpreempted run, per pause, is one capture and one reinstatement of
// its stack.
func bytesPerPreemption(t *testing.T, src, want string) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := core.Compile(src, core.Defaults())
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
			if _, err := run.Result(); err != nil || buf.String() != want {
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
	return per
}

// TestAllocGatePreemption is the tripwire for what one preemption of
// fib(18) may cost. A frame that drags a closure and the activation's
// environment with it (19.9 KB here, when frames carried reenter thunks),
// that grew an element, that saves a dead local, or that stops going back
// to the runtime's pool on re-entry fails here, not in the benchmark; so
// does a resume that declares $main's functions again or allocates its
// Resume, task and event-loop entry again.
func TestAllocGatePreemption(t *testing.T) {
	per := bytesPerPreemption(t, `function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log("fib", fib(18));`, "fib 2584\n")
	// 94 bytes here, with or without the race detector since a turn's arena
	// is no sync.Pool's to drop (141 before, 0.9 to 1.1 KB under the race
	// detector while a quarter of the operand stacks went to the GC; 0.9
	// and 1.8 KB while each resume re-ran $main's hoisting, which also kept
	// its frame out of the pool, and allocated a Resume, a task and an
	// event-loop entry; 4.4 and 5.6 while every capture built a new array
	// per frame and copied the pending tail, 8.1 and 9.9 while a frame was a
	// {label, locals, fn, self} object holding every local, 10.3 and 12.6
	// with 160-byte object headers and 48-byte property slots).
	// 252 with the Resume, task and entry allocated per resume again, 613
	// with the hoisting again.
	const gate = 200.0
	if per > gate {
		t.Errorf("%.0f bytes per preemption, gate %.0f bytes: a captured frame is carrying more than [label, fn, self] and the locals live across its call site, a capture is not reusing what the restore before it popped, or a resume allocates what the last one left", per, gate)
	}
}

// TestAllocGatePreemptionDeclaringMain is the same measurement for a program
// whose $main declares mutually recursive functions and holds more than 16
// locals, the shape of the timeslice workload's divrec and parity: every
// resume re-enters $main, whose frame is a big-bucket one. Declaring the
// functions again on each re-entry, which also keeps that frame out of the
// pool, fails here (2.4 KB per preemption when it did).
func TestAllocGatePreemptionDeclaringMain(t *testing.T) {
	per := bytesPerPreemption(t, `function build(n) { if (n === 0) { return null; } return {head: n, tail: build(n - 1)}; }
function div2(l) { if (l === null || l.tail === null) { return null; } return {head: l.head, tail: div2(l.tail.tail)}; }
function len(l) { if (l === null) { return 0; } return 1 + len(l.tail); }
function even(n) { if (n === 0) { return 1; } return odd(n - 1); }
function odd(n) { if (n === 0) { return 0; } return even(n - 1); }
var total = 0;
for (var r = 0; r < 40; r++) { total = total + len(div2(build(60))) + even(100 + r); }
console.log("mix", total);`, "mix 1220\n")
	// 358 bytes here, 376 under the race detector (399 and 6.3 to 8.2 KB
	// while the race detector dropped a quarter of the operand stacks and the
	// frames were the realm's; 510 with the Resume, task and entry allocated
	// per resume again, 8.8 KB under the detector when $main declared again).
	const gate = 480.0
	if per > gate {
		t.Errorf("%.0f bytes per preemption, gate %.0f bytes: a resumed $main declares its functions again, or its frame does not go back to the pool", per, gate)
	}
}

// TestAllocGatePreemptionDepth is the same measurement under a loop at the
// bottom of a recursion d deep: a preemption reinstates one segment and
// captures it again, so what it costs must not grow with the frames still
// pending beyond the segment (14 and 240 bytes at depths 20 and 1000: the
// unpreempted run at 1000 takes 512 of its frames from the arena the last
// try left, so the one capture of the whole stack shows, 170 KB over 706
// preemptions; 70 and 59 while each realm built its own frames; 382
// and 376 while each resume allocated its Resume, task and event-loop entry,
// 4.8 KB and 28.5 KB while every capture copied one reference per pending
// frame).
func TestAllocGatePreemptionDepth(t *testing.T) {
	per := map[int]float64{}
	for _, d := range []int{20, 1000} {
		src := fmt.Sprintf(`function down(d) {
  if (d === 0) { var s = 0; for (var i = 0; i < 100000; i++) { s = (s + i) %% 1000003; } return s; }
  return down(d - 1) + 1;
}
console.log("down", down(%d));`, d)
		per[d] = bytesPerPreemption(t, src, fmt.Sprintf("down %d\n", 4999950000%1000003+d))
	}
	if diff := math.Abs(per[1000] - per[20]); diff > 1024 {
		t.Errorf("%.0f bytes per preemption at depth 1000, %.0f at depth 20: a capture is copying the pending frames", per[1000], per[20])
	}
}
