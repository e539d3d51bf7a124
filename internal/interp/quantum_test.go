package interp

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/resolve"
)

// Quantum-hook unit coverage (ISSUE 5): the cooperative preemption trigger
// shares the statement-boundary check with MaxSteps on both engines. These
// pin the edge the folded stepLimit representation could get wrong — a
// quantum of 1 means "fire at the very next statement", which lands on
// stepLimit 0 and must not read as "disabled" (nor disable MaxSteps).

// newQuantumInterp builds the realm first and installs the hook second, so
// test hooks can safely close over the returned *Interp.
func newQuantumInterp(t *testing.T, bytecode bool, opts Options) *Interp {
	t.Helper()
	opts.Bytecode = bytecode
	return New(opts)
}

func quantumRun(t *testing.T, in *Interp, src string) error {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	return in.RunProgram(prog)
}

const quantumLoop = `
function spin(n) {
  var t = 0;
  for (var i = 0; i < n; i++) { t += i; }
  return t;
}
spin(2000);
`

func TestQuantumFiresEveryStatement(t *testing.T) {
	for _, bc := range []bool{false, true} {
		fires := 0
		in := newQuantumInterp(t, bc, Options{})
		in.SetOnQuantum(func() {
			fires++
			in.ArmQuantum(1) // re-arm: next statement again
		})
		in.ArmQuantum(1)
		if err := quantumRun(t, in, quantumLoop); err != nil {
			t.Fatalf("bytecode=%v: %v", bc, err)
		}
		// Every statement boundary re-fires; the exact count depends on
		// engine statement folding, but it must be on the order of the
		// executed statements, not 0 or 1.
		if uint64(fires) < in.Steps/4 {
			t.Errorf("bytecode=%v: quantum=1 fired %d times over %d steps — the stepLimit 0 edge reads as disabled",
				bc, fires, in.Steps)
		}
	}
}

func TestQuantumOneDoesNotDisableMaxSteps(t *testing.T) {
	for _, bc := range []bool{false, true} {
		// A pathological tenant: quantum 1 whose hook never re-arms must
		// still hit the hard budget.
		in := newQuantumInterp(t, bc, Options{
			QuantumSteps: 1,
			MaxSteps:     500,
			OnQuantum:    func() {},
		})
		if err := quantumRun(t, in, quantumLoop); err != ErrStepBudget {
			t.Errorf("bytecode=%v: err=%v, want ErrStepBudget despite quantum=1", bc, err)
		}
	}
}

func TestQuantumOneShot(t *testing.T) {
	for _, bc := range []bool{false, true} {
		fires := 0
		in := newQuantumInterp(t, bc, Options{
			QuantumSteps: 100,
			OnQuantum:    func() { fires++ },
		})
		if err := quantumRun(t, in, quantumLoop); err != nil {
			t.Fatalf("bytecode=%v: %v", bc, err)
		}
		if fires != 1 {
			t.Errorf("bytecode=%v: non-rearming hook fired %d times, want exactly 1", bc, fires)
		}
	}
}

func TestQuantumRearmSpacing(t *testing.T) {
	for _, bc := range []bool{false, true} {
		var marks []uint64
		in := newQuantumInterp(t, bc, Options{})
		in.SetOnQuantum(func() {
			marks = append(marks, in.Steps)
			in.ArmQuantum(200)
		})
		in.ArmQuantum(200)
		if err := quantumRun(t, in, quantumLoop); err != nil {
			t.Fatal(err)
		}
		if len(marks) < 5 {
			t.Fatalf("bytecode=%v: only %d quanta over %d steps", bc, len(marks), in.Steps)
		}
		for i := 1; i < len(marks); i++ {
			gap := marks[i] - marks[i-1]
			// Superinstruction folding can overshoot a boundary by a few
			// statements; it must never undershoot the armed quantum.
			if gap < 200 || gap > 220 {
				t.Errorf("bytecode=%v: quantum %d fired after %d steps, want ~200", bc, i, gap)
			}
		}
	}
}

// TestQuantumHold: a held quantum is charged nothing — the hook fires once
// the armed number of statements have run outside the hold, however many ran
// inside it — and the hold stops nothing else: the hard budget still aborts
// under it. A quantum armed during a hold starts counting at the release.
func TestQuantumHold(t *testing.T) {
	const src = `
function spin(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }
spin(20); hold(); spin(1000); rearm(); spin(1000); release(); spin(2000);
`
	for _, bc := range []bool{false, true} {
		for _, rearm := range []uint64{0, 300} {
			var held, released, fired uint64
			in := newQuantumInterp(t, bc, Options{})
			native := func(name string, fn func()) {
				in.DefineGlobal(name, ObjectValue(in.NewNative(name, func(*Interp, Value, []Value) (Value, error) {
					fn()
					return Undefined, nil
				})))
			}
			native("hold", func() { held = in.Steps; in.HoldQuantum(true) })
			native("rearm", func() {
				if rearm != 0 {
					in.ArmQuantum(rearm)
				}
			})
			native("release", func() { released = in.Steps; in.HoldQuantum(false) })
			in.SetOnQuantum(func() { fired = in.Steps })
			in.ArmQuantum(200)
			if err := quantumRun(t, in, src); err != nil {
				t.Fatalf("bytecode=%v: %v", bc, err)
			}
			if held == 0 || held > 150 || released-held < 2000 {
				t.Fatalf("bytecode=%v: held at %d, released at %d: the hold did not span the loops", bc, held, released)
			}
			// Either what was left of the 200 at the stop, or the 300 armed
			// during it, counted from the restart.
			want := released + 200 - held
			if rearm != 0 {
				want = released + rearm
			}
			if fired < want || fired > want+20 {
				t.Errorf("bytecode=%v rearm=%d: hook fired at step %d, want ~%d (held at %d, released at %d)",
					bc, rearm, fired, want, held, released)
			}
		}

		budgeted := newQuantumInterp(t, bc, Options{MaxSteps: 500, QuantumSteps: 100, OnQuantum: func() {}})
		budgeted.HoldQuantum(true)
		if err := quantumRun(t, budgeted, quantumLoop); err != ErrStepBudget {
			t.Errorf("bytecode=%v: err=%v, want ErrStepBudget with the quantum held", bc, err)
		}
	}
}
