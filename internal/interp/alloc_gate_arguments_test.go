package interp_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/interp"
)

// TestAllocGateArguments: under the three arity sub-languages that name
// `arguments` in every function (the capture arm saves it; under full the
// formals are arguments[i]) — which a program gets only if it names arguments
// itself, as arity does here — a call on the bytecode engine allocates nothing —
// the callee reads its actuals where the caller put them — where the
// tree-walker, the reference, still builds one arguments object per call.
// Measured as TestAllocGateBigFrames measures frames: a 4096-call loop under
// testing.AllocsPerRun at GOMAXPROCS(1), against a constant budget.
func TestAllocGateArguments(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const calls = 4096
	const src = `function two(a, b) { return a + b; }
function loop(n) { var t = 0; for (var i = 0; i < n; i++) { t = t + two(i, 1); } return t; }
function arity() { return arguments.length; }
entry = loop;
console.log(loop(8));`
	for _, mode := range []string{"varargs", "mixed", "full"} {
		opts := core.Defaults()
		opts.Args = mode
		c, err := core.Compile(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{core.BackendBytecode, core.BackendTree} {
			var out bytes.Buffer
			run, err := c.NewRun(core.RunConfig{Backend: backend, Clock: eventloop.NewVirtualClock(), Out: &out})
			if err != nil {
				t.Fatal(err)
			}
			if err := run.RunToCompletion(); err != nil || out.String() != "36\n" {
				t.Fatalf("%s/%s: printed %q, %v", mode, backend, out.String(), err)
			}
			loop, _ := run.In.Global.Lookup("entry")
			n := []interp.Value{interp.NumberValue(calls)}
			built := run.In.ArgumentsBuilt()
			allocs := testing.AllocsPerRun(10, func() {
				if v, err := run.In.Call(loop, interp.Undefined, n, interp.Undefined); err != nil || v.Num() != calls*(calls+1)/2 {
					t.Fatalf("%s/%s: loop(%d) = %v, %v", mode, backend, calls, v, err)
				}
			})
			built = (run.In.ArgumentsBuilt() - built) / 11 // AllocsPerRun warms up once
			t.Logf("%s/%s: %.0f allocations, %d arguments objects per %d calls", mode, backend, allocs, built, calls)
			switch backend {
			case core.BackendBytecode:
				if allocs > 8 || built != 0 {
					t.Errorf("%s: %d calls allocated %.0f objects (%d of them arguments), budget 8 and 0", mode, calls, allocs, built)
				}
			case core.BackendTree:
				if built < calls || allocs < calls {
					t.Errorf("%s: the tree-walker built %d arguments objects in %.0f allocations over %d calls: the reference moved", mode, built, allocs, calls)
				}
			}
		}
	}
}
