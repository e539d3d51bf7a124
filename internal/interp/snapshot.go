package interp

import (
	"sort"

	"repro/internal/ast"
)

// Snapshot support: the accessors and constructors the snapshot codec
// (internal/snapshot) needs to walk a paused realm's reachable graph and to
// rebuild an equivalent graph in a fresh realm. Everything here preserves
// the package's internal invariants — escape-tracked frame pooling, shape
// canonicalization through the public property mutators, the cumulative
// step/mem accounting — so the codec never reaches into representation it
// could corrupt.

// OwnPropCount and OwnPropAt read every own property — enumerable or not,
// data or accessor — in place, in shape insertion order. Replaying SetOwn /
// SetHidden / SetAccessor in this order on a fresh object re-interns the
// same canonical shape in the destination realm's transition tree.
func (o *Object) OwnPropCount() int {
	if o.shape == nil {
		return 0
	}
	return len(o.shape.keys)
}

// OwnPropAt returns own property i: its key, and its slot and enumerability
// put together; i must be below OwnPropCount.
func (o *Object) OwnPropAt(i int) (string, Prop) {
	return o.shape.keys[i], Prop{Value: o.slots[i], Enumerable: o.shape.enumerable(i)}
}

// OwnProp is OwnPropAt by key; ok is false when o has no own property key.
func (o *Object) OwnProp(key string) (p Prop, ok bool) {
	i := o.shape.slotOf(key)
	if i < 0 {
		return Prop{}, false
	}
	_, p = o.OwnPropAt(i)
	return p, true
}

// Parent returns the enclosing frame (nil for the global frame).
func (e *Env) Parent() *Env { return e.parent }

// Layout returns the static slot layout (nil for the global frame).
func (e *Env) Layout() *ast.ScopeInfo { return e.layout }

// SlotValues returns the live slot prefix of a slot frame (aliased, not
// copied; the snapshot walk only reads it).
func (e *Env) SlotValues() []Value { return e.slots }

// IsGlobalFrame reports whether this is the realm's cell-backed root frame.
func (e *Env) IsGlobalFrame() bool { return e.cells != nil }

// GlobalCount returns the number of global bindings.
func (e *Env) GlobalCount() int { return len(e.cells) }

// GlobalNames returns the global frame's binding names, sorted, so the
// encoder emits bindings in a deterministic order.
func (e *Env) GlobalNames() []string {
	names := make([]string, 0, len(e.cells))
	for name := range e.cells {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RestoredSlotEnv builds a slot frame for a decoded snapshot. The frame is
// born escaped: it was reachable from a closure or continuation in the
// source realm (that is why it was encoded), so it must never enter the
// frame pool. It is charged to the meter like any frame, but the decoder
// overwrites the counter with the snapshot's figure afterwards
// (SetAccounting), so decode cost never bills the guest twice.
func (in *Interp) RestoredSlotEnv(parent *Env, layout *ast.ScopeInfo, slots []Value) *Env {
	e := &Env{parent: parent, layout: layout, slots: slots, escaped: true}
	in.chargeMem(frameMemCost(e))
	return e
}

// SetRestoredParent wires a decoded frame into its chain. Decoding
// allocates all frames before linking them (parent references in a
// snapshot may point forward), so the parent arrives in a second pass.
// Restored-frame use only.
func (e *Env) SetRestoredParent(p *Env) { e.parent = p }

// NewClosure builds a function object exactly as evaluating the function
// literal in env would — same co-allocation, same escape marking of the
// captured chain, same meter charge. The snapshot decoder pairs a
// deterministic function ID (resolved back to fn) with a decoded env; a REPL
// turn makes its function over the global frame.
func (in *Interp) NewClosure(fn *ast.Func, env *Env) *Object {
	return in.makeFunction(fn, env)
}

// RandState reads the Math.random generator state so a restored guest
// continues the same pseudo-random sequence.
func (in *Interp) RandState() uint64 { return in.rng }

// SetRandState replaces the Math.random generator state.
func (in *Interp) SetRandState(s uint64) { in.rng = s }

// SetAccounting overwrites the cumulative step and allocation counters with
// a snapshot's figures, then re-derives the folded statement-boundary
// limit. Restores call it after decoding, so the restored guest resumes
// under the same cumulative budgets it was parked with and the decode
// traffic itself is not billed.
func (in *Interp) SetAccounting(steps, memUsed uint64) {
	in.Steps = steps
	in.memUsed = memUsed
	// The jump in Steps covers statements run in the parked realm's past
	// life; re-anchor the profiler so they are not attributed to the first
	// stack sampled here.
	in.profResetBaseline()
	in.recomputeStepLimit()
}
