package interp

import (
	"errors"
	"testing"

	"repro/internal/parser"
	"repro/internal/resolve"
)

// Allocation-meter coverage (ISSUE 6): the memory budget shares the
// statement-boundary check with MaxSteps and the quantum on both engines,
// trips as an uncatchable plain error, pre-checks unbounded
// single-statement allocators, and credits recycled call frames so deep
// call traffic is net-zero against the budget.

func memRun(t *testing.T, bytecode bool, budget uint64, src string) (*Interp, error) {
	t.Helper()
	in := New(Options{Bytecode: bytecode, MemBudget: budget})
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	return in, in.RunProgram(prog)
}

const allocLoop = `
function build(n) {
  var keep = [];
  for (var i = 0; i < n; i++) { keep.push({a: i, b: i, c: i}); }
  return keep.length;
}
build(20000);
`

func TestMemLimitTripsAtBoundary(t *testing.T) {
	for _, bc := range []bool{false, true} {
		// 20k objects at ~300+ metered bytes each blows a 256 KiB budget.
		in, err := memRun(t, bc, 256<<10, allocLoop)
		if !errors.Is(err, ErrMemLimit) {
			t.Errorf("bytecode=%v: err=%v, want ErrMemLimit", bc, err)
		}
		// The meter exceeded the budget at the trip point; the unwind then
		// credits the call frames back, so the final reading may sit just
		// under the budget — but it must still be in its neighborhood.
		if in.MemUsed() < 200<<10 {
			t.Errorf("bytecode=%v: MemUsed=%d, want near the 256KiB budget", bc, in.MemUsed())
		}
	}
}

func TestMemUnmeteredByDefault(t *testing.T) {
	for _, bc := range []bool{false, true} {
		in, err := memRun(t, bc, 0, allocLoop)
		if err != nil {
			t.Fatalf("bytecode=%v: unmetered run failed: %v", bc, err)
		}
		if in.MemUsed() == 0 {
			t.Errorf("bytecode=%v: meter did not count with budget disabled", bc)
		}
	}
}

func TestMemLimitUncatchable(t *testing.T) {
	// Guest try/catch must not intercept the budget verdict: ErrMemLimit is
	// a plain Go error, not a Thrown, exactly like ErrStepBudget.
	src := `
var caught = false;
try {
  var keep = [];
  for (var i = 0; i < 100000; i++) { keep.push({a: i, b: i}); }
} catch (e) {
  caught = true;
}
`
	for _, bc := range []bool{false, true} {
		_, err := memRun(t, bc, 64<<10, src)
		if !errors.Is(err, ErrMemLimit) {
			t.Errorf("bytecode=%v: err=%v, want ErrMemLimit to escape the guest's try/catch", bc, err)
		}
	}
}

func TestMemFrameTrafficIsNetZero(t *testing.T) {
	// 50k calls through pooled, non-escaping frames: charge on acquire,
	// credit on release. A cumulative-only meter would bill ~50k × frame
	// cost and kill this well-behaved guest.
	src := `
function leaf(a, b) { var t = a + b; return t; }
var acc = 0;
for (var i = 0; i < 50000; i++) { acc = acc + leaf(i, 1) - leaf(i, 0); }
`
	for _, bc := range []bool{false, true} {
		in, err := memRun(t, bc, 128<<10, src)
		if err != nil {
			t.Fatalf("bytecode=%v: frame churn tripped the meter: %v (MemUsed=%d)", bc, err, in.MemUsed())
		}
	}
}

func TestMemEscapedFramesStayCharged(t *testing.T) {
	// The same call count, but every frame escapes into a closure the guest
	// keeps: now the frames are live state and must exhaust the budget.
	src := `
var keep = [];
function make(i) { return function() { return i; }; }
for (var i = 0; i < 50000; i++) { keep.push(make(i)); }
`
	for _, bc := range []bool{false, true} {
		_, err := memRun(t, bc, 128<<10, src)
		if !errors.Is(err, ErrMemLimit) {
			t.Errorf("bytecode=%v: err=%v, want ErrMemLimit for retained closures", bc, err)
		}
	}
}

func TestMemPreCheckRefusesGiantAllocations(t *testing.T) {
	// Each of these is a single statement that would allocate far past the
	// budget in one native call; the pre-check must refuse BEFORE the host
	// allocates, and the run must die with ErrMemLimit, not a RangeError
	// the guest could catch.
	cases := []struct{ name, src string }{
		{"array-ctor", `var a = new Array(50000000);`},
		{"array-length", `var a = []; a.length = 50000000;`},
		{"array-index", `var a = []; a[49999999] = 1;`},
		{"string-repeat", `var s = "x".repeat(50000000);`},
		{"string-concat", `var s = "x"; for (var i = 0; i < 40; i++) { s = s + s; }`},
	}
	for _, tc := range cases {
		for _, bc := range []bool{false, true} {
			_, err := memRun(t, bc, 1<<20, tc.src)
			if !errors.Is(err, ErrMemLimit) {
				t.Errorf("%s bytecode=%v: err=%v, want ErrMemLimit", tc.name, bc, err)
			}
		}
	}
}

func TestMemLimitSurvivesQuantumRearm(t *testing.T) {
	// The folding edge: once over budget, stepLimit is pinned at 0 and a
	// quantum hook that re-arms (the supervisor does, every turn) must not
	// slide the boundary check past the pending ErrMemLimit.
	for _, bc := range []bool{false, true} {
		in := New(Options{Bytecode: bc, MemBudget: 64 << 10, QuantumSteps: 100})
		in.SetOnQuantum(func() { in.ArmQuantum(100) })
		prog, err := parser.Parse(allocLoop)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog)
		if err := in.RunProgram(prog); !errors.Is(err, ErrMemLimit) {
			t.Errorf("bytecode=%v: err=%v, want ErrMemLimit despite quantum re-arms", bc, err)
		}
	}
}

func TestResetMemMeter(t *testing.T) {
	in, err := memRun(t, false, 0, `var a = [1, 2, 3];`)
	if err != nil {
		t.Fatal(err)
	}
	if in.MemUsed() == 0 {
		t.Fatal("meter did not count")
	}
	in.ResetMemMeter()
	if in.MemUsed() != 0 {
		t.Fatalf("MemUsed=%d after reset, want 0", in.MemUsed())
	}
}
