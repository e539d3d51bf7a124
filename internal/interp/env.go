package interp

import (
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/ast"
)

// Env is a lexical environment frame. Closures capture the *Env, so
// bindings are shared by reference — which is exactly what makes assignable
// captured variables problematic for continuation restoration and why
// Stopify boxes them (§3.2.1).
//
// A frame has one of two shapes. The realm's root is the global frame: cells
// binds each name to a heap cell, because builtins, the Stopify runtime, eval
// and implicit globals all create names there at run time. Every other frame
// — one per call, one per entered catch clause — is a slot frame: layout is
// the static layout internal/resolve computed (slot i binds Names[i]) and
// slots holds the values, so a resolved reference is a few pointer hops and
// an array index. Every tree an engine runs went through the resolver, so
// nothing defines a name on a slot frame at run time and there is no third
// shape.
//
// Nothing looks a name up in a slot frame: a reference is a coordinate the
// resolver packed (a program whose coordinates do not fit ast.Ref does not
// compile) or a proved global, and only the global frame's cells answer to
// a name (Lookup, Define, Cell).
//
// The zero Value is undefined, so a freshly allocated slot frame is already
// correctly var-hoisted: never-written slots read back as undefined with no
// fill pass and no per-read nil translation.
type Env struct {
	parent *Env
	layout *ast.ScopeInfo // static slot layout; nil on the global frame
	slots  []Value

	// cells backs the global frame: each name binds a heap cell whose
	// identity is stable for the life of the realm (redefinition writes
	// through the existing cell), so RefGlobal reference sites can cache
	// the *cell after the first by-name lookup and skip the hash ever
	// after. Non-nil only on the root frame.
	cells map[string]*cell

	// escaped records that a closure captured this frame (makeFunction
	// marks the whole chain): the frame may outlive its call, so the call
	// epilogue must not recycle it through the frame pool. The only way a
	// frame outlives its call is through a Closure.Env chain, and every
	// closure is born in makeFunction — so the mark is complete.
	escaped bool
}

// cell is one global binding. Holding the value behind a pointer is what
// lets reference sites cache the binding instead of the value.
type cell struct{ v Value }

// envBuf6/envBuf16 are Envs with inline slot storage, so frames cost one
// allocation instead of two; two size classes keep small frames (plain
// functions) from paying for the instrumented functions' temp-heavy
// layouts.
type envBuf6 struct {
	e   Env
	buf [6]Value
}

type envBuf16 struct {
	e   Env
	buf [16]Value
}

// NewSlotEnv returns a slot frame with the given static layout. Slots are
// zero Values and read back as undefined, which is precisely JavaScript's
// var-hoisting rule without the cost of filling the frame on every call.
func NewSlotEnv(parent *Env, layout *ast.ScopeInfo) *Env {
	n := len(layout.Names)
	if n <= 6 {
		s := new(envBuf6)
		s.e = Env{parent: parent, layout: layout, slots: s.buf[:n]}
		return &s.e
	}
	if n <= 16 {
		s := new(envBuf16)
		s.e = Env{parent: parent, layout: layout, slots: s.buf[:n]}
		return &s.e
	}
	if idx := bigBucketIdx(n); idx >= 0 {
		// Bucket capacity, so the frame can enter a big-frame freelist on
		// release (releaseFrame keys the bucket off cap(slots)).
		return &Env{parent: parent, layout: layout, slots: make([]Value, n, bigBucketCaps[idx])}
	}
	return &Env{parent: parent, layout: layout, slots: make([]Value, n)}
}

// envPoolCap bounds each frame freelist so a burst of deep recursion does
// not pin an arbitrary number of dead frames.
const envPoolCap = 512

// Big frames — layouts beyond the 16-slot inline class (arguments-heavy
// instrumented functions, whose temp-laden ANF layouts routinely exceed
// it) — recycle through size-bucketed freelists instead of the GC. Slot
// slices are allocated with bucket capacity, so releaseFrame can identify
// the home bucket from cap(slots) alone, exactly as the inline classes are
// identified. Frames larger than the top bucket stay GC-allocated.
var bigBucketCaps = [...]int{32, 64, 128, 256}

// envPoolCapBig bounds each big-frame freelist; big buckets pin more bytes
// per entry, so they keep fewer entries than the inline classes.
const envPoolCapBig = 128

// bigBucketIdx returns the freelist index whose capacity fits n slots, or
// -1 when n exceeds the largest bucket.
func bigBucketIdx(n int) int {
	for i, c := range bigBucketCaps {
		if n <= c {
			return i
		}
	}
	return -1
}

// bigBucketOfCap returns the freelist index whose capacity is exactly c,
// or -1. Only bucket-allocated slices have bucket capacities: make with a
// single size yields cap == len, and no layout-sized make is performed for
// layouts ≤ the bucket bound (those use the buckets), so an exact match
// proves bucket provenance.
func bigBucketOfCap(c int) int {
	for i, bc := range bigBucketCaps {
		if c == bc {
			return i
		}
	}
	return -1
}

// opStack is the per-turn arena a realm borrows: the operand stack chunk
// calls carve their windows from, the freelists Call draws slot frames
// from, and the tree-walker's two scratch buffers. Continuations are heap
// frames, so between turns nothing of a guest is on the Go stack, no
// operand window or argument slice is live and every pooled frame is dead:
// a realm borrows an arena only for as long as its outermost Call (or a
// program's top level, RunProgram) is running, and what it leaves spare
// goes to the next turn, of whichever realm, that borrows the arena.
type opStack struct {
	buf  []Value
	top  int // next free slot of buf
	high int // highest top since buf was last all-zero

	// Frame freelists for unescaped frames: one per inline-storage size
	// class, plus size-bucketed freelists for the big layouts (17–256
	// slots) of arguments-heavy instrumented functions.
	free6   []*envBuf6
	free16  []*envBuf16
	freeBig [len(bigBucketCaps)][]*Env

	// The tree-walker's scratch: args is the stack-disciplined buffer
	// evalArgs carves argument slices from (expr.go), empty between calls
	// and cleared as it pops; rets recycles returnErr completions, each
	// created at one point (the return statement) and consumed at one (the
	// Call boundary that turns it into a value), so it is pushed only once
	// it is provably unreachable, and it holds no value.
	args []Value
	rets []*returnErr
}

// arenas holds the arenas no Call is running on, the last returned on top.
// It keeps one per CPU, which is as many as can be running at once; an arena
// returned past that is left to the GC. It is a list and not a sync.Pool
// because the pool may drop what it is given (the race detector drops a
// quarter of it on purpose), and a dropped arena takes its spare frames
// with it: the next turn would build them again.
var arenas struct {
	sync.Mutex
	free []*opStack
}

var maxArenas = runtime.NumCPU()

// borrowOps lends the outermost Call an arena: the last one returned, or a
// new one with a small operand stack (most programs peak under 500 slots).
func (in *Interp) borrowOps() *opStack {
	var st *opStack
	arenas.Lock()
	if n := len(arenas.free); n > 0 {
		st = arenas.free[n-1]
		arenas.free[n-1] = nil
		arenas.free = arenas.free[:n-1]
	}
	arenas.Unlock()
	if st == nil {
		st = &opStack{buf: make([]Value, 64)}
	}
	in.ops = st
	return st
}

// returnOps gives the outermost Call's arena back. The operand stack is
// zeroed up to its high-water mark, and every pooled frame was cleared on
// release, so a returned arena pins none of this realm's objects.
func (in *Interp) returnOps(st *opStack) {
	in.ops = nil
	clear(st.buf[:st.high])
	st.top, st.high = 0, 0
	if len(st.buf) > 1<<16 { // past 1.5 MB, a deep recursion's: dropped
		st.buf = make([]Value, 64)
	}
	if cap(st.args) > 1<<16 { // likewise a deep tree-walked recursion's
		st.args = nil
	}
	arenas.Lock()
	if len(arenas.free) < maxArenas {
		arenas.free = append(arenas.free, st)
	}
	arenas.Unlock()
}

// acquireFrame returns a slot frame for layout, recycling a pooled frame of
// the borrowed arena when one is available. Pooled frames were cleared on
// release, so slots read back as undefined exactly like a fresh frame's.
// A pop clears the entry it leaves behind the freelist's length: the
// arena outlives the realm, and a stale entry would keep the frame — and,
// once a closure captures it, the frame's layout, values and so the
// program's tree — reachable until a later push wrote over it.
//
// The allocation meter charges every acquire and credits every release
// (frameMemCost — same formula both ways, keyed off cap(slots), which
// clearing does not change), so call traffic is net-zero against the budget
// and only *escaped* frames — the ones a closure keeps alive — stay
// charged. Without the credit, deep call traffic would erode a long-running
// well-behaved guest's budget even though its live graph never grows.
func (in *Interp) acquireFrame(parent *Env, layout *ast.ScopeInfo) *Env {
	st := in.ops
	n := len(layout.Names)
	if n <= 6 {
		if k := len(st.free6); k > 0 {
			s := st.free6[k-1]
			st.free6[k-1] = nil
			st.free6 = st.free6[:k-1]
			s.e = Env{parent: parent, layout: layout, slots: s.buf[:n]}
			in.chargeMem(frameMemCost(&s.e))
			return &s.e
		}
	} else if n <= 16 {
		if k := len(st.free16); k > 0 {
			s := st.free16[k-1]
			st.free16[k-1] = nil
			st.free16 = st.free16[:k-1]
			s.e = Env{parent: parent, layout: layout, slots: s.buf[:n]}
			in.chargeMem(frameMemCost(&s.e))
			return &s.e
		}
	} else if idx := bigBucketIdx(n); idx >= 0 {
		if free := st.freeBig[idx]; len(free) > 0 {
			e := free[len(free)-1]
			free[len(free)-1] = nil
			st.freeBig[idx] = free[:len(free)-1]
			// The pooled buffer was fully cleared on release; reslice it to
			// the new layout (within bucket capacity) and rewire the frame.
			e.parent, e.layout = parent, layout
			e.slots = e.slots[:n]
			in.chargeMem(frameMemCost(e))
			return e
		}
	}
	e := NewSlotEnv(parent, layout)
	in.chargeMem(frameMemCost(e))
	return e
}

// frameMemCost is the meter cost of one call frame: header plus the full
// slot capacity (inline class or bucket), so charge and credit agree no
// matter which layout the frame is serving when each side runs.
func frameMemCost(e *Env) int {
	return memFrameBytes + memValueBytes*cap(e.slots)
}

// releaseFrame returns an unescaped frame to the borrowed arena's pool when
// the call exits (the caller checks escaped; see Call). The full buffer is
// cleared (not just the layout's prefix) so a later acquire with a larger
// layout — in this realm or the next to borrow the arena — never exposes
// stale values, and so the pool does not pin dead object graphs. The two
// inline size classes and the four big buckets are pooled; frames beyond
// the top bucket are left to the GC.
func (in *Interp) releaseFrame(e *Env) {
	in.creditMem(frameMemCost(e)) // the frame is dead whether or not it pools
	st := in.ops
	switch cap(e.slots) {
	case 6:
		s := (*envBuf6)(unsafe.Pointer(e))
		s.e = Env{} // drop parent/layout so the pool pins nothing
		s.buf = [6]Value{}
		if len(st.free6) < envPoolCap {
			st.free6 = append(st.free6, s)
		}
	case 16:
		s := (*envBuf16)(unsafe.Pointer(e))
		s.e = Env{}
		s.buf = [16]Value{}
		if len(st.free16) < envPoolCap {
			st.free16 = append(st.free16, s)
		}
	default:
		idx := bigBucketOfCap(cap(e.slots))
		if idx < 0 || len(st.freeBig[idx]) >= envPoolCapBig {
			return // beyond the top bucket (or pool full): leave to the GC
		}
		// Clear the whole bucket capacity — not just the layout's prefix —
		// so a later acquire with a larger layout never sees stale values
		// and the pool pins no dead object graphs.
		buf := e.slots[:cap(e.slots)]
		for i := range buf {
			buf[i] = Value{}
		}
		*e = Env{slots: buf[:0]}
		st.freeBig[idx] = append(st.freeBig[idx], e)
	}
}

// GetRef reads a resolved (hops, slot) coordinate.
func (e *Env) GetRef(r ast.Ref) Value { return *e.slotRef(r) }

// SetRef writes through a resolved coordinate.
func (e *Env) SetRef(r ast.Ref, v Value) { *e.slotRef(r) = v }

// slotRef is the slot a resolved coordinate names.
func (e *Env) slotRef(r ast.Ref) *Value {
	env := e
	for n := r.Hops(); n > 0; n-- {
		env = env.parent
	}
	return &env.slots[r.Slot()]
}

// Define creates or overwrites a binding of the global frame, the only frame
// that gains names at run time.
func (e *Env) Define(name string, v Value) {
	if c, ok := e.cells[name]; ok {
		c.v = v
	} else {
		e.cells[name] = &cell{v: v}
	}
}

// Cell returns the binding cell for name in this frame, or nil; only the
// global frame has cells.
func (e *Env) Cell(name string) *cell {
	return e.cells[name]
}

// Lookup reads the global frame's binding of name.
func (e *Env) Lookup(name string) (Value, bool) {
	if c, ok := e.cells[name]; ok {
		return c.v, true
	}
	return Undefined, false
}
