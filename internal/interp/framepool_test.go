package interp

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/resolve"
)

// Frame-pool tests: calls recycle their slot frames through the pool of the
// arena the outermost Call borrows unless a closure escaped with the frame
// (makeFunction marks the chain). Correctness here is subtle enough to
// deserve direct coverage on top of the differential corpus: a frame
// recycled too eagerly corrupts captured variables silently, in this realm
// or in the next one to borrow the arena.

// lend installs an arena on in as an outermost Call would: every call the
// test makes is then nested inside the loan, so the frames the run leaves
// behind stay readable in the returned arena.
func lend(in *Interp) *opStack {
	st := &opStack{buf: make([]Value, 64)}
	in.ops = st
	return st
}

// lentInterp is allocInterp on a realm that runs inside a lent arena: it
// runs src and then name(100) once, and returns the realm, the arena and the
// function.
func lentInterp(t *testing.T, src, name string, bytecode bool) (*Interp, *opStack, Value) {
	t.Helper()
	in := New(Options{Bytecode: bytecode})
	st := lend(in)
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
	if _, err := in.Call(fn, Undefined, []Value{NumberValue(100)}, Undefined); err != nil {
		t.Fatal(err)
	}
	return in, st, fn
}

// pooled counts the arena's spare inline-class frames.
func pooled(st *opStack) int { return len(st.free6) + len(st.free16) }

func runPoolSrc(t *testing.T, src string, bytecode bool) string {
	t.Helper()
	var buf bytes.Buffer
	in := New(Options{Out: &buf, Bytecode: bytecode})
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFramePoolEscapedClosures: closures created in different calls must
// keep their own frames even though non-capturing calls recycle theirs in
// between.
func TestFramePoolEscapedClosures(t *testing.T) {
	const src = `
function leaf(x) { return x * 2; } // never captured: pooled every call
function mk(i) {
  var local = i * 10;
  leaf(i); // interleave pooled calls with the capturing one
  return function () { return local + i; };
}
var a = mk(1);
var b = mk(2);
for (var j = 0; j < 100; j++) { leaf(j); } // churn the pool
console.log(a(), b(), a() === a());
`
	for _, bc := range []bool{false, true} {
		if got := runPoolSrc(t, src, bc); got != "11 22 true\n" {
			t.Errorf("bytecode=%v: closures observed recycled frames: %q", bc, got)
		}
	}
}

// TestFramePoolConditionalEscape: the same function pools its frame on
// calls that do not evaluate the nested function literal and keeps it on
// calls that do — the dynamic-escape property the lazy thunks rely on.
func TestFramePoolConditionalEscape(t *testing.T) {
	const src = `
var saved = [];
function maybe(i, keep) {
  var v = i * 100;
  if (keep) { saved.push(function () { return v; }); }
  return v;
}
for (var i = 0; i < 50; i++) { maybe(i, i % 10 === 0); }
var sum = 0;
for (var k = 0; k < saved.length; k++) { sum += saved[k](); }
console.log(saved.length, sum);
`
	// kept: i = 0,10,20,30,40 → v = 0+1000+2000+3000+4000 = 10000
	for _, bc := range []bool{false, true} {
		if got := runPoolSrc(t, src, bc); got != "5 10000\n" {
			t.Errorf("bytecode=%v: conditional escape broken: %q", bc, got)
		}
	}
}

// TestFramePoolReuses verifies the pool actually recycles: after a burst
// of non-capturing calls, the freelists are populated and a fresh call
// pops from them (the allocation gates assert the same thing indirectly;
// this pins the mechanism).
func TestFramePoolReuses(t *testing.T) {
	in := New(Options{})
	st := lend(in)
	prog, err := parser.Parse(`
function f(a, b) { var c = a + b; return c; }
var t = 0;
for (var i = 0; i < 32; i++) { t += f(i, i); }
`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	// The frame layout is self + params + this + new.target + arguments +
	// locals, so even a tiny function lands in one of the two size-class
	// pools — just assert a pool was fed at all.
	if pooled(st) == 0 {
		t.Fatal("non-capturing calls did not return frames to the pool")
	}
	// Recursion exercises LIFO acquire/release nesting.
	var out bytes.Buffer
	in2 := New(Options{Out: &out})
	prog2, err := parser.Parse(`
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
console.log(fib(15));
`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog2)
	if err := in2.RunProgram(prog2); err != nil {
		t.Fatal(err)
	}
	if out.String() != "610\n" {
		t.Fatalf("recursive pooled calls computed %q, want 610", out.String())
	}
}

// TestFramePoolCapturedFramesReturn: a capture site stores its activation
// as data — [label, fn, self, saved…] — and data pins nothing: the
// activation's frame goes back to the pool when the unwind leaves it, so a
// capture/re-entry cycle leaves the next calls nothing to allocate. The
// same frame built around a reenter closure (Figure 3's shape) marks the
// environment escaped and the pool never sees it again.
func TestFramePoolCapturedFramesReturn(t *testing.T) {
	const depth = 20
	// down unwinds depth+1 activations, each leaving a frame behind;
	// reenterAll applies every frame's fn to its self, as a restore does.
	program := func(frame string) string {
		return fmt.Sprintf(`
var stack = [];
function down(d) {
  var x = d * 2;
  if (d > 0) { down(d - 1); }
  stack.push(%s);
}
function reenterAll() { for (var i = 0; i < stack.length; i++) { var k = stack[i]; k[1].apply(k[2]); } stack = []; }
function calls(n) { var s = 0; for (var i = 0; i < n; i++) { s += leaf(i); } return s; }
function leaf(i) { var y = i + 1; return y; }
down(%d);
`, frame, depth)
	}
	for _, bc := range []bool{false, true} {
		in, st, fn := lentInterp(t, program(`[1, leaf, this, d, x]`), "calls", bc)
		if got := pooled(st); got < depth+1 {
			t.Errorf("bytecode=%v: %d frames pooled after capturing %d activations as data; want them all back", bc, got, depth+1)
		}
		reenter, _ := in.Global.Lookup("reenterAll")
		if _, err := in.Call(reenter, Undefined, nil, Undefined); err != nil {
			t.Fatal(err)
		}
		// An Env per call would be 100; 8 is the other gates' allowance.
		gate(t, in, fn, []Value{NumberValue(100)}, 8, "100 calls after a capture/re-entry cycle (bytecode="+fmt.Sprint(bc)+")")

		_, thunks, _ := lentInterp(t, program(`[1, function () { return down(d); }, this, d, x]`), "calls", bc)
		if got := pooled(thunks); got > 2 {
			t.Errorf("bytecode=%v: %d frames pooled after capturing %d activations behind closures; the control is not measuring escape", bc, got, depth+1)
		}
	}
}

// bigFnSrc defines big(a, b): a function whose frame layout exceeds the
// 16-slot inline class (20 named locals plus params and implicits), landing
// it in the first big bucket.
const bigFnSrc = `
function big(a, b) {
  var v1 = a + 1, v2 = a + 2, v3 = a + 3, v4 = a + 4, v5 = a + 5;
  var v6 = b + 1, v7 = b + 2, v8 = b + 3, v9 = b + 4, v10 = b + 5;
  var v11 = v1 + v6, v12 = v2 + v7, v13 = v3 + v8, v14 = v4 + v9, v15 = v5 + v10;
  var v16 = v11 * 2, v17 = v12 * 2, v18 = v13 * 2, v19 = v14 * 2, v20 = v15 * 2;
  return v16 + v17 + v18 + v19 + v20;
}
`

// TestFramePoolBigFrames: >16-slot frames recycle through the size-bucketed
// freelists with the same escape discipline as the inline classes — a
// closure capturing a big frame keeps it, non-capturing calls recycle, and
// recycled frames come back fully cleared (hoisted vars read undefined).
func TestFramePoolBigFrames(t *testing.T) {
	const src = bigFnSrc + `
var saved = [];
function bigCapture(i) {
  var w1 = i, w2 = i, w3 = i, w4 = i, w5 = i, w6 = i, w7 = i, w8 = i;
  var w9 = i, w10 = i, w11 = i, w12 = i, w13 = i, w14 = i, w15 = i;
  var w16 = i, w17 = i, local = i * 1000;
  saved.push(function () { return local + w1; });
  return w17;
}
// A big frame whose later vars are never written: a dirty recycled buffer
// would leak the previous call's values here.
function bigFresh(x) {
  var u1 = x, u2, u3, u4, u5, u6, u7, u8, u9, u10;
  var u11, u12, u13, u14, u15, u16, u17, u18;
  return u18 === undefined && u2 === undefined ? "clean" : "dirty";
}
var t1 = 0;
for (var i = 0; i < 50; i++) { t1 += big(i, i + 1); }
bigCapture(1); bigCapture(2);
for (var j = 0; j < 50; j++) { t1 += big(j, j); }
console.log(bigFresh(9), saved[0](), saved[1](), t1);
`
	for _, bc := range []bool{false, true} {
		got := runPoolSrc(t, src, bc)
		if got != "clean 1001 2002 55500\n" {
			t.Errorf("bytecode=%v: big-frame pooling broken: %q", bc, got)
		}
	}
}

// TestFramePoolBigBucketFeeds pins the mechanism: non-capturing calls of a
// >16-slot function populate a big bucket, and the buffers parked there are
// fully cleared.
func TestFramePoolBigBucketFeeds(t *testing.T) {
	in := New(Options{})
	st := lend(in)
	prog, err := parser.Parse(bigFnSrc + `
var t = 0;
for (var i = 0; i < 32; i++) { t += big(i, i); }
`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	total := 0
	for idx := range st.freeBig {
		for _, e := range st.freeBig[idx] {
			total++
			if cap(e.slots) != bigBucketCaps[idx] {
				t.Errorf("bucket %d holds a frame with cap %d", idx, cap(e.slots))
			}
			for i, v := range e.slots[:cap(e.slots)] {
				if v != (Value{}) {
					t.Fatalf("pooled big frame slot %d not cleared", i)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("big-frame calls fed no bucket")
	}
}

// TestFramePoolCatchScopes: catch frames chain onto pooled function
// frames; the caught binding and locals must survive the interleaving.
func TestFramePoolCatchScopes(t *testing.T) {
	const src = `
function thrower(i) { throw new Error("e" + i); }
function catcher(i) {
  var tag = "c" + i;
  try { thrower(i); } catch (e) { return tag + ":" + e.message; }
}
console.log(catcher(1), catcher(2));
`
	for _, bc := range []bool{false, true} {
		if got := runPoolSrc(t, src, bc); got != "c1:e1 c2:e2\n" {
			t.Errorf("bytecode=%v: catch over pooled frames broken: %q", bc, got)
		}
	}
}

// acrossRealmsSrc recurses 40 deep from K, a global the test defines per
// realm. Every seventh level keeps a closure over its frame, so the frames
// escape partway down; every other frame, and every big one, goes back to the
// arena. A var read before its first write counts in stale: a recycled frame
// that was not cleared hands it the last call's value.
const acrossRealmsSrc = `
var kept = [], stale = 0;
function big(a, b) {
  var v1 = a + 1, v2 = a + 2, v3 = a + 3, v4 = a + 4, v5 = a + 5;
  var v6 = b + 1, v7 = b + 2, v8 = b + 3, v9 = b + 4, v10 = b + 5;
  var v11, v12, v13, v14, v15, v16, v17, v18;
  if (v18 !== undefined) { stale++; }
  v18 = v1 + v10;
  return v18;
}
function down(n, acc) {
  var fresh;
  if (fresh !== undefined) { stale++; }
  fresh = n * 3 + acc;
  if (n % 7 === 3) { kept.push(function () { return fresh + n; }); }
  if (n === 0) { return fresh; }
  return down(n - 1, fresh % 1000) + big(n, acc);
}
var r = down(40, K), s = 0;
for (var i = 0; i < kept.length; i++) { s += kept[i](); }
console.log(r, s, kept.length, stale);
`

// TestFramePoolAcrossRealms: spare frames pass from realm to realm through
// the arenas, on many goroutines at once (run it under -race). Every realm
// must print exactly what its own K gives: a frame released while a closure
// still held it, or pooled without being cleared, shows up in another
// realm's numbers.
func TestFramePoolAcrossRealms(t *testing.T) {
	prog, err := parser.Parse(acrossRealmsSrc)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	want := func(k int) string {
		var kept []int
		var down func(n, acc int) int
		down = func(n, acc int) int {
			fresh := n*3 + acc
			if n%7 == 3 {
				kept = append(kept, fresh+n)
			}
			if n == 0 {
				return fresh
			}
			return down(n-1, fresh%1000) + n + acc + 6
		}
		r, s := down(40, k), 0
		for _, v := range kept {
			s += v
		}
		return fmt.Sprintf("%d %d %d 0\n", r, s, len(kept))
	}
	const goroutines, realms = 8, 64
	errs := make(chan string, goroutines*realms)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range realms {
				k := g*realms + r
				var out bytes.Buffer
				in := New(Options{Out: &out, Bytecode: k%2 == 0})
				in.Global.Define("K", NumberValue(float64(k)))
				if err := in.RunProgram(prog); err != nil {
					errs <- fmt.Sprintf("K=%d: %v", k, err)
					continue
				}
				if got := out.String(); got != want(k) {
					errs <- fmt.Sprintf("K=%d bytecode=%v: printed %q, want %q", k, k%2 == 0, got, want(k))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestArenaPinsNothingOfADroppedRealm: an arena outlives every realm that
// borrows it, so nothing a realm leaves in it may keep the realm's objects
// alive. Here a pooled frame is popped for a call whose frame a closure then
// captures: once the realm is dropped, the object that frame holds must be
// collectable while the arena waits for its next borrower. A pop that leaves
// its entry behind the freelist's length pins it (and, in a program, the
// program's tree).
func TestArenaPinsNothingOfADroppedRealm(t *testing.T) {
	for _, bytecode := range []bool{false, true} {
		gone := capturedInArena(t, bytecode)
		collected := false
		for i := 0; i < 20 && !collected; i++ {
			runtime.GC()
			select {
			case <-gone:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !collected {
			t.Errorf("bytecode=%v: an object of a dropped realm stayed reachable from the arena", bytecode)
		}
	}
}

// capturedInArena runs a call whose frame comes from the pool of the arena
// its realm borrows and escapes into a closure, and returns a channel closed
// when the object that frame holds is collected. Each outermost Call returns
// the arena, last on top, and the next one borrows it again.
func capturedInArena(t *testing.T, bytecode bool) <-chan struct{} {
	in := New(Options{Bytecode: bytecode})
	prog, err := parser.Parse(`var held;
function warm(a) { return a; }
function keep() { var o = {}; held = function () { return o; }; return o; }`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	if err := in.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	call := func(fn Value) Value {
		v, err := in.Call(fn, Undefined, nil, Undefined)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	warm, _ := in.Global.Lookup("warm")
	keep, _ := in.Global.Lookup("keep")
	call(warm)            // its frame goes back to the arena's pool
	o := call(keep).Obj() // keep's call draws it, and the frame escapes into held
	if o == nil {
		t.Fatal("keep() is not an object")
	}
	gone := make(chan struct{})
	runtime.SetFinalizer(o, func(*Object) { close(gone) })
	return gone
}
