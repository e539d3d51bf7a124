package interp

import (
	"bytes"
	"testing"

	"repro/internal/parser"
	"repro/internal/resolve"
)

// runEngine parses, resolves, and executes src in a fresh realm with the
// given engine, returning console output (and failing the test on any
// execution error).
func runEngine(t *testing.T, src string, useBytecode bool) (string, *Interp) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve.Program(prog)
	var buf bytes.Buffer
	in := New(Options{Out: &buf, Seed: 1, Bytecode: useBytecode})
	if err := in.RunProgram(prog); err != nil {
		t.Fatalf("run (bytecode=%v): %v", useBytecode, err)
	}
	return buf.String(), in
}

// runBoth executes src under both engines, asserts identical output, and
// asserts the bytecode engine actually executed compiled chunks (these
// tests exist to cover the bytecode path; silently tree-walking would make
// them vacuous).
func runBoth(t *testing.T, src string) string {
	t.Helper()
	tree, _ := runEngine(t, src, false)
	bc, in := runEngine(t, src, true)
	if tree != bc {
		t.Fatalf("engine divergence:\n  tree:     %q\n  bytecode: %q", tree, bc)
	}
	if in.ChunkRuns() == 0 {
		t.Fatal("bytecode engine compiled nothing; test is vacuous")
	}
	return bc
}

func TestBytecodeArrayHoles(t *testing.T) {
	out := runBoth(t, `
function f() {
  var a = [,1,,3,,];
  var b = [1,,3];
  return a.length + ":" + a.join("-") + ":" + b[1] + ":" + (1 in b);
}
console.log(f());`)
	want := "5:-1--3-:undefined:true\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestBytecodeDeleteArrayElemWithNamedProps(t *testing.T) {
	out := runBoth(t, `
function f() {
  var a = [1,2,3];
  a.foo = "x";
  delete a[1];
  return a[1] + "/" + a.length + "/" + a.foo;
}
console.log(f());`)
	if out != "undefined/3/x\n" {
		t.Fatalf("got %q", out)
	}
}

func TestBytecodeAccessorVsDataKinds(t *testing.T) {
	runBoth(t, `
function f() {
  var o = { get x() { return 1; }, set x(v) { this.sink = v; } };
  var o2 = { x: 5 };            // data-shaped sibling
  var r = o.x + ",";
  o.x = 42;                     // must hit the setter, not a slot write
  r += o.sink + ",";
  o2.x = 6;                     // warm data write site
  r += o2.x;
  return r;
}
console.log(f());`)
}

func TestBytecodeLabeledBreakContinue(t *testing.T) {
	out := runBoth(t, `
function f() {
  var log = "";
  outer: for (var i = 0; i < 4; i++) {
    switch (i) { case 3: break outer; }
    inner: for (var j = 0; j < 4; j++) {
      if (j === 1) { continue inner; }
      if (j === 3) { continue outer; }
      if (i === 2 && j === 2) { break outer; }
      log += i + "" + j + ";";
    }
  }
  return log;
}
console.log(f());`)
	if out != "00;02;10;12;20;\n" {
		t.Fatalf("got %q", out)
	}
}

func TestBytecodeArgumentsMaterialization(t *testing.T) {
	runBoth(t, `
function uses(a) { return arguments.length + ":" + arguments[1]; }
function skips(a) { return a * 2; } // no arguments reference: not materialized
function grows() { arguments[7] = "x"; return arguments.length + ":" + arguments[7]; }
console.log(uses(1, "two", 3), skips(21), grows(1, 2));`)
}

func TestBytecodeForInDynamicLoopVar(t *testing.T) {
	// The loop variable is an implicit global (assigned, never declared):
	// the bytecode store must create it at the root frame like the
	// tree-walker does.
	runBoth(t, `
function f(o) { for (k in o) {} return typeof k; }
console.log(f({a: 1}));`)
}

// TestReturnThroughFinally is the regression test for the completion-record
// freelist audit, and for the compiled counterpart that has no completion
// records: a return that leaves through a finally block arrives exactly once
// with its own value, however the two kinds of call interleave and whether
// the finally lets it pass or overrides it.
func TestReturnThroughFinally(t *testing.T) {
	out := runBoth(t, `
function viaFinally(n) {
  try { return "f" + n; } finally { var sink = n; }
}
function viaFinallyOverride() {
  try { return "dropped"; } finally { return "override"; }
}
function plain(n) { return "p" + n; }
function nest(n) {
  // A plain return evaluated while a return through a finally is being
  // constructed, and vice versa.
  try { return viaFinally(plain(n)) + "|" + plain(viaFinally(n)); } finally {}
}
var r = [];
for (var i = 0; i < 50; i++) {
  r.push(nest(i));
  r.push(viaFinallyOverride());
}
console.log(r[0], r[1], r[98], r[99], r.length);`)
	want := "fp0|pf0 override fp49|pf49 override 100\n"
	if out != want {
		t.Fatalf("returns crossed: got %q want %q", out, want)
	}
}

// TestBytecodeStepBudgetParity checks both engines abort a runaway loop at
// the same statement boundary with the same error.
func TestBytecodeStepBudgetParity(t *testing.T) {
	src := `function f() { var i = 0; while (true) { i++; } } f();`
	run := func(bc bool) (uint64, error) {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog)
		in := New(Options{Bytecode: bc, MaxSteps: 10_000})
		rerr := in.RunProgram(prog)
		return in.Steps, rerr
	}
	treeSteps, treeErr := run(false)
	bcSteps, bcErr := run(true)
	if treeErr != ErrStepBudget || bcErr != ErrStepBudget {
		t.Fatalf("expected budget errors, got tree=%v bytecode=%v", treeErr, bcErr)
	}
	// Statement-marker fusion may count several boundaries in one step, but
	// the count stops at the one that crossed the budget.
	if treeSteps != bcSteps {
		t.Fatalf("step counters diverged: tree=%d bytecode=%d", treeSteps, bcSteps)
	}
}

// TestAbortRunsNoFinally pins the one rule for what is not a completion — a
// budget abort here; a kill or a host error alike: it ends the guest from
// outside, and no guest code runs on its way out, neither a catch body nor a
// finally block. Same output (none), same error, on both engines; the
// compiled function's finally blocks and the global frame's tree-walked one
// alike. (A memory abort raised by a refused allocation is not even standing
// afterwards — the bytes were never charged — so a finally block entered
// would simply run.)
func TestAbortRunsNoFinally(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		opts Options
		want error
	}{
		{"step-budget", `while (true) { n++; }`, Options{MaxSteps: 10_000}, ErrStepBudget},
		{"mem-limit", `while (true) { keep.push(new Array(1000)); }`, Options{MemBudget: 256 << 10}, ErrMemLimit},
	} {
		src := `var n = 0, keep = [];
function f() {
  try { try { ` + tc.body + ` } finally { console.log("inner finally ran"); } }
  catch (e) { console.log("caught", e); }
  finally { console.log("outer finally ran"); }
}
try { f(); } finally { console.log("global finally ran"); }`
		var steps [2]uint64
		for i, bc := range []bool{false, true} {
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			resolve.Program(prog)
			var out bytes.Buffer
			opts := tc.opts
			opts.Out, opts.Bytecode = &out, bc
			in := New(opts)
			if err := in.RunProgram(prog); err != tc.want || out.String() != "" {
				t.Errorf("%s (bytecode=%v): err %v, printed %q; want %v and nothing", tc.name, bc, err, out.String(), tc.want)
			}
			if bc && in.ChunkRuns() == 0 {
				t.Errorf("%s: f was not compiled", tc.name)
			}
			steps[i] = in.Steps
		}
		if diff := int64(steps[0]) - int64(steps[1]); diff < -8 || diff > 8 {
			t.Errorf("%s: step counters diverged: tree=%d bytecode=%d", tc.name, steps[0], steps[1])
		}
	}
}

// TestBytecodeDeepRecursionRangeError checks the engines share the stack
// limit behavior.
func TestBytecodeDeepRecursionRangeError(t *testing.T) {
	runBoth(t, `
function f(n) { return f(n + 1); }
try { f(0); } catch (e) { console.log(e.name); }`)
}

// TestBytecodeChunkStats checks the engine-evidence counter, on the realm
// that compiles the chunks and on a second realm that finds them already
// published: both must be able to prove which engine ran.
func TestBytecodeChunkStats(t *testing.T) {
	prog, err := parser.Parse(`
function a() { return 1; }
function b() { return a() + a(); }
console.log(b());`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Program(prog)
	runs := func(bytecode bool) uint64 {
		t.Helper()
		var buf bytes.Buffer
		in := New(Options{Out: &buf, Seed: 1, Bytecode: bytecode})
		if err := in.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		return in.ChunkRuns()
	}
	for _, realm := range []string{"first", "second"} {
		if n := runs(true); n != 3 {
			t.Fatalf("%s realm: %d chunk runs, want 3", realm, n)
		}
	}
	if n := runs(false); n != 0 {
		t.Fatalf("tree realm reported %d chunk runs", n)
	}
}
