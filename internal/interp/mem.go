package interp

import "errors"

// The allocation meter. CPU (MaxSteps), wall time, and output are policed
// per-tenant by the supervisor; this meter closes the remaining hole: a
// guest building a giant object graph (or an unbounded string) exhausting
// host memory. Every Value-graph growth path — object and closure creation,
// property addition, array element growth, string construction, environment
// frames — charges an approximate byte cost against a per-realm counter;
// the budget itself is only checked at the statement-boundary step check,
// so the hot path stays the single `Steps > stepLimit` compare both engines
// already pay. A charge that crosses the budget forces that compare to trip
// at the next statement (stepLimit ← 0), where stepBoundary converts it to
// ErrMemLimit — a plain Go error, like ErrStepBudget, so guest try/catch
// can never intercept it.
//
// Accounting semantics: the meter counts bytes *allocated*, not bytes live —
// there is no GC integration, so garbage is never subtracted. The one
// exception is the call-frame pool: frames are charged on acquire and
// credited on release (an escaped frame is never released, so captured
// environments stay charged), which keeps deep call traffic from eroding
// the budget of a well-behaved long-running guest. The meter therefore
// upper-bounds the live guest graph: a guest under budget cannot have
// built more than MemBudget bytes of reachable state. Overshoot past the
// budget is bounded by what a single statement can allocate, and the
// unbounded single-statement allocators (new Array(n), array length
// growth, string concatenation) pre-check the budget with checkMem before
// allocating, so a hostile allocator cannot take the host down between two
// statement boundaries.
//
// The meter is cumulative across pause/resume, exactly like the step
// budget: it lives on the Interp, and nothing in the park/restore path
// resets it. A corollary of allocated-not-live accounting: the stopify
// capture machinery is metered too — a continuation frame is charged as the
// object literal the instrumentation writes for it, whether that code runs or
// the bytecode engine builds the frame itself (frames.go) — so each
// preemption capture bills the tenant a few KB (depth-dependent, ~6-9 KB at
// paper-scale stacks). Budgets are
// allocation budgets, not heap sizes; size them in megabytes (stopifyd
// defaults to 256 MB), never in the tens of KB of a single hot loop's
// scheduler traffic.

// ErrMemLimit aborts execution when the realm's allocation meter exceeds
// Options.MemBudget. Like ErrStepBudget it is a plain Go error, not a
// Thrown, so it propagates through guest try/catch uncaught.
var ErrMemLimit = errors.New("interp: memory budget exhausted")

// Approximate per-allocation byte costs: the meter's model of a guest's
// growth, not the sizes of the structs that hold it. They deliberately
// round up to cover Go allocator size classes and the side structures
// (shape table growth, map buckets) the meter does not model individually,
// and they are deliberately left where they were when the object header
// shrank to 112 bytes and a property slot to 32 (DESIGN_interp.md, "Object
// layout"): a layout change must not move any budget's verdict.
const (
	memValueBytes  = 24  // one Value: array element, env slot
	memPropBytes   = 64  // one property slot (Prop + shape/index amortization)
	memObjectBytes = 144 // an object
	memFuncBytes   = 176 // a closure: funcObject's Object + Closure
	memFrameBytes  = 64  // Env header (slot storage charged per Value)
	// memTimerBytes is one pending setTimeout: its event-loop entry (64 B),
	// the Timer it describes (48), the task closure (24), and its shares of
	// the loop's heap slice and handle map — 143 to 177 B a timer measured
	// on amd64 from 10^3 to 3·10^5 pending, the spread being slice and map
	// growth. Forwarded arguments are charged per Value besides.
	memTimerBytes = 192
)

// chargeMem records n bytes of Value-graph growth. When the charge crosses
// the budget it arms the statement-boundary check (stepLimit ← 0) instead
// of failing here: growth paths are expression-level and have no way to
// abort mid-statement, but the very next statement boundary does.
func (in *Interp) chargeMem(n int) {
	in.memUsed += uint64(n)
	if in.memBudget != 0 && in.memUsed > in.memBudget {
		in.stepLimit = 0
	}
}

// creditMem returns n bytes to the meter (frame-pool release). Saturating:
// the approximate cost model must never wrap the counter.
func (in *Interp) creditMem(n int) {
	u := uint64(n)
	if in.memUsed >= u {
		in.memUsed -= u
	} else {
		in.memUsed = 0
	}
}

// checkMem reports ErrMemLimit if charging n more bytes would exceed the
// budget, without charging. The unbounded single-statement growth paths
// (new Array(n), array length growth, string concatenation) call it BEFORE
// allocating, so a hostile `new Array(1e9)` dies by policy instead of by
// host OOM.
func (in *Interp) checkMem(n int) error {
	if in.memBudget != 0 && in.memUsed+uint64(n) > in.memBudget {
		in.stepLimit = 0 // the statement boundary confirms the verdict
		return ErrMemLimit
	}
	return nil
}

// MemUsed reports bytes charged so far (owner-goroutine only; a scheduler
// snapshots it between turns).
func (in *Interp) MemUsed() uint64 { return in.memUsed }

// ChargeMem charges n bytes from the host side — the embedding analogue of
// a guest allocation, used by host natives that build guest-visible
// structures and by the fault-injection harness to simulate allocation
// storms. Executing goroutine only.
func (in *Interp) ChargeMem(n uint64) {
	in.memUsed += n
	if in.memBudget != 0 && in.memUsed > in.memBudget {
		in.stepLimit = 0
	}
}

// ResetMemMeter zeroes the meter. The Stopify core calls it once after the
// prelude has executed, so the budget measures the guest program's own
// growth rather than the runtime's fixed setup.
func (in *Interp) ResetMemMeter() {
	in.memUsed = 0
	in.recomputeStepLimit()
}
