package interp

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// Allocation gates (ISSUE 4): the tagged Value representation exists so the
// hot paths of the instrumented interpreter loop stop heap-boxing numbers
// and strings. These tests turn that property into a tier-1 failure: if a
// future change reintroduces boxing on the arithmetic loop, the warm
// property get/set path, or number→string coercion, `go test` fails —
// the regression does not wait for the perf gate.
//
// Two kinds of gate:
//   - pure-op gates assert exactly 0 allocs/op on the representation's own
//     operations (the "tagged-arith fast path" bound from the issue);
//   - loop gates run a JS loop with thousands of iterations and assert the
//     whole call stays under a small constant allocation budget, proving
//     the per-iteration cost is zero without depending on the fixed
//     per-call frame/stack setup.

// allocInterp builds a realm, loads src, and returns the named function,
// warming every inline cache and the chunk cache with one call.
func allocInterp(t testing.TB, src, name string, bytecode bool, warm []Value) (*Interp, Value) {
	t.Helper()
	in := New(Options{Bytecode: bytecode})
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	fn, ok := in.Global.Lookup(name)
	if !ok {
		t.Fatalf("function %s not defined", name)
	}
	if _, err := in.Call(fn, Undefined, warm, Undefined); err != nil {
		t.Fatal(err)
	}
	return in, fn
}

// gate runs fn with args under testing.AllocsPerRun and fails when the
// per-call allocation count exceeds budget.
func gate(t *testing.T, in *Interp, fn Value, args []Value, budget float64, what string) {
	t.Helper()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := in.Call(fn, Undefined, args, Undefined); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("%s: %.1f allocs/call, budget %.0f — the tagged representation is boxing again",
			what, allocs, budget)
	}
}

const allocLoopN = 4096

// TestAllocGateBigFrames: a loop over a >16-slot function must not
// heap-allocate per call — the size-bucketed big-frame freelists recycle
// the frame exactly as the inline classes do for small functions.
func TestAllocGateBigFrames(t *testing.T) {
	// bigFnSrc (framepool_test.go) is the shared >16-slot function, so the
	// gate measures exactly the layout the pool tests pin.
	src := bigFnSrc + `
function loop(n) {
  var t = 0;
  for (var i = 0; i < n; i++) { t += big(i, i); }
  return t;
}
`
	for _, bc := range []bool{false, true} {
		in, fn := allocInterp(t, src, "loop", bc, []Value{NumberValue(float64(allocLoopN))})
		gate(t, in, fn, []Value{NumberValue(float64(allocLoopN))}, 8,
			"4096 calls of a 20-local function (bytecode="+fmt.Sprint(bc)+")")
	}
}

// TestAllocGateTaggedArith: the pure representation ops allocate nothing.
// This is the issue's "0 allocs/op on the tagged-arith fast path" bound,
// asserted at exactly zero.
func TestAllocGateTaggedArith(t *testing.T) {
	in := newTestInterp()
	a, b := NumberValue(3.25), NumberValue(11)
	var sink Value
	if n := testing.AllocsPerRun(1000, func() {
		v, err := in.applyBinary("+", a, b)
		if err != nil {
			t.Fatal(err)
		}
		v, err = in.applyBinary("*", v, b)
		if err != nil {
			t.Fatal(err)
		}
		sink = v
	}); n != 0 {
		t.Errorf("number arithmetic through applyBinary: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sink = NumberValue(math.Pi)
		sink = BoolValue(StrictEquals(sink, a))
		sink = StringValue("tagged")
		sink = typeOfValue(sink)
	}); n != 0 {
		t.Errorf("value construction/compare: %v allocs/op, want 0", n)
	}
	_ = sink
}

// TestAllocGateArithLoop: a JS arithmetic loop allocates a constant amount
// per call (frame + operand-stack bookkeeping), independent of iteration
// count — i.e. zero per iteration — on both engines.
func TestAllocGateArithLoop(t *testing.T) {
	const src = `
function arith(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = s + i * 2 - (i & 3);
    s = s % 1000000007;
  }
  return s;
}`
	args := []Value{NumberValue(allocLoopN)}
	for _, eng := range []struct {
		name     string
		bytecode bool
	}{{"tree", false}, {"bytecode", true}} {
		t.Run(eng.name, func(t *testing.T) {
			in, fn := allocInterp(t, src, "arith", eng.bytecode, args)
			gate(t, in, fn, args, 8, "arith loop ("+eng.name+")")
		})
	}
}

// TestAllocGatePropertyLoop: warm string-key property get and set through
// the inline caches allocate nothing per iteration.
func TestAllocGatePropertyLoop(t *testing.T) {
	const src = `
var obj = { k: 1, other: 2 };
function props(n) {
  var t = 0;
  for (var i = 0; i < n; i++) {
    t = t + obj.k;
    obj.k = t % 97;
  }
  return t;
}`
	args := []Value{NumberValue(allocLoopN)}
	for _, eng := range []struct {
		name     string
		bytecode bool
	}{{"tree", false}, {"bytecode", true}} {
		t.Run(eng.name, func(t *testing.T) {
			in, fn := allocInterp(t, src, "props", eng.bytecode, args)
			gate(t, in, fn, args, 8, "string-key property get/set ("+eng.name+")")
		})
	}
}

// TestAllocGateObjectLiteral: a two-key literal costs one 112-byte header
// and a slot array of two 32-byte slots, on both engines — the literal's
// count sizes the array (OpNewObject's A, the walker's ast.Object), where a
// fixed first capacity of four spent 192 bytes on every object.
func TestAllocGateObjectLiteral(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const src = `
function chain(n) {
  var t = null;
  for (var i = 0; i < n; i++) {
    t = {left: t, right: i};
  }
  return t;
}`
	const n = 10_000
	const perLiteral = 96 + 2*24
	args := []Value{NumberValue(n)}
	for _, eng := range []struct {
		name     string
		bytecode bool
	}{{"tree", false}, {"bytecode", true}} {
		t.Run(eng.name, func(t *testing.T) {
			in, fn := allocInterp(t, src, "chain", eng.bytecode, []Value{NumberValue(1)})
			bytes, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
			for try := 0; try < 4; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := in.Call(fn, Undefined, args, Undefined); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
				allocs = min(allocs, after.Mallocs-before.Mallocs)
			}
			t.Logf("%d literals: %d allocations, %d bytes", n, allocs, bytes)
			if allocs > 2*n+16 || bytes > n*perLiteral+4096 {
				t.Errorf("%d literals took %d allocations in %d bytes, ceiling %d in %d: a literal is more than a header and its two slots",
					n, allocs, bytes, 2*n+16, n*perLiteral+4096)
			}
		})
	}
}

// TestAllocGateNumberToString: coercing small integers to strings rides
// the interned decimal table and the empty-string concat fast path —
// zero allocations per iteration.
func TestAllocGateNumberToString(t *testing.T) {
	const src = `
function coerce(n) {
  var len = 0;
  var s;
  for (var i = 0; i < n; i++) {
    s = "" + (i & 255);
    len = len + s.length;
  }
  return len;
}`
	args := []Value{NumberValue(allocLoopN)}
	for _, eng := range []struct {
		name     string
		bytecode bool
	}{{"tree", false}, {"bytecode", true}} {
		t.Run(eng.name, func(t *testing.T) {
			in, fn := allocInterp(t, src, "coerce", eng.bytecode, args)
			gate(t, in, fn, args, 8, "number→string coercion ("+eng.name+")")
		})
	}
}

// TestAllocGateStringCompareLoop: string-valued locals flowing through
// comparisons and typeof never re-box.
func TestAllocGateStringCompareLoop(t *testing.T) {
	const src = `
var mode = "normal";
function guards(n) {
  var hits = 0;
  for (var i = 0; i < n; i++) {
    if (mode === "normal") { hits++; }
    if (typeof mode === "string") { hits++; }
  }
  return hits;
}`
	args := []Value{NumberValue(allocLoopN)}
	for _, eng := range []struct {
		name     string
		bytecode bool
	}{{"tree", false}, {"bytecode", true}} {
		t.Run(eng.name, func(t *testing.T) {
			in, fn := allocInterp(t, src, "guards", eng.bytecode, args)
			gate(t, in, fn, args, 8, "mode-guard string compare ("+eng.name+")")
		})
	}
}

// TestAllocGateElementLoop: integer-indexed array reads and writes stay on
// the element fast path with zero per-iteration allocations (the array is
// pre-grown; growth itself may allocate).
func TestAllocGateElementLoop(t *testing.T) {
	const src = `
var arr = new Array(512);
for (var i = 0; i < 512; i++) { arr[i] = i; }
function elems(n) {
  var t = 0;
  for (var i = 0; i < n; i++) {
    var j = i & 511;
    t = t + arr[j];
    arr[j] = t & 1023;
  }
  return t;
}`
	args := []Value{NumberValue(allocLoopN)}
	for _, eng := range []struct {
		name     string
		bytecode bool
	}{{"tree", false}, {"bytecode", true}} {
		t.Run(eng.name, func(t *testing.T) {
			in, fn := allocInterp(t, src, "elems", eng.bytecode, args)
			gate(t, in, fn, args, 8, "array element loop ("+eng.name+")")
		})
	}
}

// The ceilings on a bare realm — the builtin graph New builds — are its
// measured 214 allocations in 21 312 bytes (the same under the race
// detector) plus 3 %. The realm follows the process's frozen host shapes
// (shape.go) and builds none of its own; a builtin that leaves the
// template, or a realm that rebuilds its builtin shapes, fails here. While
// an object header was 112 bytes and a slot 32 (the enumerable bit rode in
// the slot), a bare realm cost 22 848 bytes. While
// every realm built its own shapes a bare realm cost 393 allocations in
// 39 368 bytes (39 480 under the race detector). Building the shapes of an
// n-key object cost O(n²) before a first transition shared its parent's
// index (889 allocations, 121 640 bytes). Before the object header shrank
// to 112 bytes and a slot to 32, and before the big builtin prototypes
// sized their slot arrays once, a realm cost 400 allocations in 47 080
// bytes.
const (
	bareRealmAllocs = 221
	bareRealmBytes  = 21_960
)

// bareRealmCost reports what New allocates: the least of eight tries.
func bareRealmCost() (bytes, allocs uint64) {
	bytes, allocs = math.MaxUint64, math.MaxUint64
	for try := 0; try < 8; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(Options{})
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	return bytes, allocs
}

// realmBytes builds a realm on the given engine, runs next() in it, and
// reports the bytes the heap handed out: the least of sixteen tries, so a
// try that finds no arena to borrow, or a compiler's sync.Pool that comes up
// empty — after a collection, or under the race detector, which drops a
// quarter of all Puts — is not counted.
func realmBytes(t *testing.T, next func() *ast.Program, bytecode bool) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for try := 0; try < 16; try++ {
		prog := next()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in := New(Options{Bytecode: bytecode})
		err := in.RunProgram(prog)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if runs := in.ChunkRuns(); (runs != 0) != bytecode {
			t.Fatalf("bytecode=%v realm ran %d chunks: the gate is measuring the wrong engine", bytecode, runs)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestAllocGateRealm is the tripwire for what a bare realm may cost (an
// absolute ceiling, bareRealmBytes) and for what the bytecode engine may
// cost a realm beyond the tree-walker. The chunk, its constant pool, the
// operand stack and the spare frames belong to no realm — the first two live
// on the shared tree, the others are borrowed — so a realm over a tree some realm has already run
// pays for none of them, and a realm over a never-seen one-function program
// pays for one small chunk. A fixed per-realm arena, a per-realm chunk
// table or a compiler that keeps its scratch fails here, not in the
// benchmark.
func TestAllocGateRealm(t *testing.T) {
	// The chunk compiler's scratch is a sync.Pool, which keeps what it is
	// given per P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if bytes, allocs := bareRealmCost(); bytes > bareRealmBytes || allocs > bareRealmAllocs {
		t.Errorf("a bare realm allocated %d objects in %d bytes, ceiling %d in %d", allocs, bytes, bareRealmAllocs, bareRealmBytes)
	} else {
		t.Logf("a bare realm: %d allocations, %d bytes", allocs, bytes)
	}
	fresh := func() *ast.Program {
		prog, err := parser.Parse(`function f(a, b) { var s = a + b; return s * 2; } f(1, 2);`)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog)
		return prog
	}
	prog := fresh()
	same := func() *ast.Program { return prog }

	tree := realmBytes(t, same, false)
	first := realmBytes(t, fresh, true)
	later := realmBytes(t, same, true)
	t.Logf("tree-walker realm %d bytes; bytecode realm over a never-seen tree +%d, over a tree already run %+d",
		tree, first-tree, int64(later)-int64(tree))
	if first > tree+1024 {
		t.Errorf("bytecode realm over a never-seen tree: %d bytes, tree-walker realm %d: more than 1 KB apart", first, tree)
	}
	if later > tree+64 {
		t.Errorf("bytecode realm over a tree already run: %d bytes, tree-walker realm %d: it paid for a chunk, a constant pool or an arena", later, tree)
	}
}

// BenchmarkNew is what a bare realm costs: the builtin graph New builds.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		New(Options{})
	}
}

// TestAllocGateFramesAcrossRealms: a realm owns no spare frames and no
// scratch. They live in the arena its outermost Call borrows — the frame
// freelists, and the tree-walker's argument buffer and returnErr freelist —
// so what one realm leaves behind the next realm to borrow the arena draws
// on, and a fresh realm's first fib(15) allocates no more than a warm
// realm's: no Env, no argument buffer, no completion. A realm that grows
// freelists or scratch of its own allocates here (the tree-walker's, kept
// per realm, cost a fresh realm 7 objects).
func TestAllocGateFramesAcrossRealms(t *testing.T) {
	prog, err := parser.Parse(`function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	for _, eng := range []struct {
		name     string
		bytecode bool
	}{{"tree", false}, {"bytecode", true}} {
		t.Run(eng.name, func(t *testing.T) {
			realm := func() (*Interp, Value) {
				in := New(Options{Bytecode: eng.bytecode})
				if err := in.RunProgram(prog); err != nil {
					t.Fatal(err)
				}
				fib, _ := in.Global.Lookup("fib")
				return in, fib
			}
			args := []Value{NumberValue(15)}
			mallocs := func(in *Interp, fib Value) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				v, err := in.Call(fib, Undefined, args, Undefined)
				runtime.ReadMemStats(&after)
				if err != nil || v.Num() != 610 {
					t.Fatalf("fib(15) = %v, %v", v, err)
				}
				return after.Mallocs - before.Mallocs
			}
			in, fib := realm()
			mallocs(in, fib)
			warm := mallocs(in, fib)
			// A collection that lands mid-call only adds: the fewest of
			// eight second realms is the figure.
			fresh := uint64(math.MaxUint64)
			for range 8 {
				fresh = min(fresh, mallocs(realm()))
			}
			t.Logf("fib(15) allocated %d objects in a warm realm, %d in a fresh one", warm, fresh)
			if fresh > warm {
				t.Errorf("a fresh realm's fib(15) allocated %d objects, a warm realm's %d: the realm built frames or scratch another realm left spare", fresh, warm)
			}
		})
	}
}
