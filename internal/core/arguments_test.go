package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/langs"
	"repro/internal/snapshot"
)

// `arguments`: on the bytecode engine a call's actuals stay where the caller
// put them and the object is built only if the callee looks (DESIGN_interp.md,
// "arguments"); the tree-walker builds it at entry. Nothing a guest can print
// tells the two apart. These tests pin what a guest prints as absolute
// expectations — per arity sub-language where the sub-languages differ — so
// that both engines breaking the same way is as visible as one of them
// diverging.

// argsEdge is one row of the semantics matrix.
type argsEdge struct {
	name, src string
	// want is every cell of the row: raw, and stopified under each arity
	// sub-language, on either engine, preempted at every statement and parked
	// and restored mid-run. wantBy overrides it for "raw" or a sub-language.
	want   string
	wantBy map[string]string
	// calmOnly lists sub-languages whose stopified run is checked unpreempted
	// only, because what the row observes the sub-language does not carry
	// across a capture. "none" carries nothing of arguments and is calm-only
	// in every row.
	calmOnly string
}

func (a argsEdge) wantFor(cell string) string {
	if w, ok := a.wantBy[cell]; ok {
		return w
	}
	return a.want
}

var argsEdgePrograms = []argsEdge{
	{name: "identity", calmOnly: "varargs", // varargs re-enters with a new object: x !== arguments past a capture
		src: `function id(v) { return v; }
function f(a) { var x = arguments; var y = id(1); return (arguments === arguments) + "," + (x === arguments) + "," + y; }
console.log(f(1));`,
		want: "true,true,1\n"},
	{name: "length",
		src: `function f(a, b, c) { return arguments.length; }
console.log(f(), f(1), f(1, 2, 3, 4, 5));`,
		want: "0 1 5\n"},
	{name: "past-the-end", // where Object.prototype[i] shows through
		src: `Object.prototype[3] = "proto3";
function f(a) { return arguments[3] + "," + arguments[0] + "," + arguments[1]; }
var r = f("x") + " " + f("x", "y", "z", "w");
delete Object.prototype[3];
console.log(r);`,
		want: "proto3,x,undefined w,x,y\n"},
	{name: "odd-keys",
		src: `function f(a, b) { return [arguments["1"], arguments[-1], arguments["length"], arguments[1.5], arguments["x"], arguments[true], arguments[-0]].join("|"); }
console.log(f("p", "q"));`,
		want: "q||2||||p\n"},
	// JavaScript ends in "12": this engine's delete leaves the element and its
	// assigned length enumerates. varargs re-enters with the elements alone,
	// so a length assigned before a capture is gone after it.
	{name: "writes", calmOnly: "varargs",
		src: `function id(v) { return v; }
function f(a, b, c) {
  arguments[1] = "w"; var r = id(arguments[1]) + "," + arguments.length;
  arguments.length = 1; r += "," + id(arguments.length) + "," + arguments[2];
  delete arguments[0]; r += "," + id(arguments[0]) + "," + Object.keys(arguments).join("");
  return r;
}
console.log(f("p", "q", "r"));`,
		want: "w,3,1,r,undefined,012length\n"},
	{name: "returned",
		src: `function f(a, b) { return arguments; }
var r = f(1, 2, 3);
console.log(r.length, r[0], r[2], typeof r, r === f(1, 2, 3));`,
		want: "3 1 3 object false\n"},
	{name: "slice-and-apply",
		src: `function rest() { return Array.prototype.slice.call(arguments, 1); }
function sum() { var s = 0; for (var i = 0; i < arguments.length; i++) { s += arguments[i]; } return s; }
function fwd() { return sum.apply(this, arguments); }
console.log(rest(1, 2, 3).join(","), fwd(1, 2, 3, 4));`,
		want: "2,3 10\n"},
	{name: "apply-does-not-alias", // the vector is a copy of arr, not arr
		src: `var arr = [1, 2];
function g(a) { arr[0] = 99; return a + "," + arguments[0] + "," + arguments.length; }
console.log(g.apply(null, arr), arr[0]);`,
		want: "1,1,2 99\n"},
	{name: "bound-prepends",
		src: `function f() { return arguments.length + ":" + Array.prototype.join.call(arguments, ""); }
var b = f.bind(null, "a", "b");
console.log(b("c"), b());`,
		want: "3:abc 2:ab\n"},
	{name: "arrow-during-and-after",
		src: `function id(v) { return v; }
function f(a) { var during = (() => id(arguments[0]) + arguments.length)(); return [during, () => id(arguments[1])]; }
var r = f(10, 20);
console.log(r[0], r[1]());`,
		want: "12 20\n"},
	{name: "eval", // eval is indirect here: a fragment runs in the global frame raw, in its own function stopified; JavaScript prints "5 5"
		src: `function f(a) {
  var r; try { r = eval("arguments[0]"); } catch (e) { r = e.name; }
  return [r, () => { try { return eval("arguments[0]"); } catch (e) { return e.name; } }];
}
var r = f(5);
console.log(r[0], r[1]());`,
		want: "undefined undefined\n", wantBy: map[string]string{"raw": "ReferenceError ReferenceError\n"}},
	{name: "catch-and-finally",
		src: `function id(v) { return v; }
function f(a, b) {
  var r = "";
  try { throw arguments[1]; } catch (e) { r += e + id(arguments[0]) + arguments.length; try { throw 1; } catch (e2) { r += id(arguments[1]); } }
  finally { r += id(arguments.length) + arguments[0]; }
  return r;
}
console.log(f("x", "y"));`,
		want: "yx2y2x\n"},
	{name: "rebound", // JavaScript: p(6) is "number" and q(8) ends in 8 everywhere; a formal named arguments loses to the object here, and full reads a through the reassigned binding
		src: `function id(v) { return v; }
function v(a) { var arguments; return id(arguments.length) + "," + arguments[0]; }
function w(a) { var arguments = "s"; return id(arguments); }
function p(arguments) { return id(typeof arguments); }
function q(a) { arguments = [7]; return id(arguments[0]) + "," + arguments.length + "," + a; }
console.log(v(5), w(5), p(6), q(8));`,
		want: "1,5 s object 7,1,8\n", wantBy: map[string]string{"full": "1,5 s number 7,1,7\n"}},
	{name: "natives-call-with-go-slices", // setter, getter, timer: the callers whose args is a Go-side slice
		src: `function id(v) { return v; }
var o = { get g() { return id(arguments.length); }, set s(v) { this.n = id(arguments.length) + ":" + arguments[0]; } };
o.s = "val";
var line = o.g + " " + o.n;
setTimeout(function (x, y) { console.log(line, "timer", id(arguments.length), arguments[1], x); }, 0, "p", "q");`,
		want: "0 1:val timer 2 q p\n"},
}

// The rows join edgeCasePrograms, so they run through the raw and stopified
// differentials and the snapshot round trip under core.Defaults() too, and
// seed FuzzBytecodeVsTreewalker and FuzzSnapshotRoundTrip.
func init() {
	for _, p := range argsEdgePrograms {
		edgeCasePrograms = append(edgeCasePrograms, p.src)
	}
}

var argsModes = []string{"none", "varargs", "mixed", "full"}

func argsOpts(mode string) core.Opts {
	opts := core.Defaults()
	opts.Args, opts.Getters, opts.Eval = mode, true, true
	return opts
}

// guardedRun builds a realm whose quantum hook pauses it; the hook can fire
// while NewRun runs the prelude, before there is a run to pause.
func guardedRun(t *testing.T, c *core.Compiled, backend string) (*core.AsyncRun, *bytes.Buffer) {
	t.Helper()
	buf := &bytes.Buffer{}
	var run *core.AsyncRun
	run, err := c.NewRun(core.RunConfig{
		Backend: backend, Clock: eventloop.NewVirtualClock(), Out: buf, Seed: 1, MaxSteps: diffBudget,
		OnQuantum: func() {
			if run != nil {
				run.Pause(nil)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return run, buf
}

// preempted runs c pausing after every quantum statements and resuming in
// place; it returns what the guest printed and how often it was paused.
func preempted(t *testing.T, c *core.Compiled, backend string, quantum uint64) (string, int) {
	t.Helper()
	run, buf := guardedRun(t, c, backend)
	run.ArmQuantum(quantum)
	run.Run(nil)
	pauses := 0
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
	if _, err := run.Result(); err != nil {
		t.Fatalf("quantum %d: %v", quantum, err)
	}
	return buf.String(), pauses
}

// parkedAndRestored parks c after quantum statements on one engine, restores
// the blob on the other and finishes it there. ok is false when the guest
// finished first or cannot be serialized (a live bound function, eval code).
func parkedAndRestored(t *testing.T, c *core.Compiled, from, to string, quantum uint64) (out string, ok bool) {
	t.Helper()
	run, _ := guardedRun(t, c, from)
	run.ArmQuantum(quantum)
	run.Run(nil)
	for !run.Paused() && run.Loop.RunOne() {
	}
	if !run.Paused() {
		return "", false
	}
	blob, err := run.Snapshot()
	if perr := (*snapshot.PinError)(nil); errors.As(err, &perr) {
		return "", false
	}
	if err != nil {
		t.Fatalf("Snapshot at %d: %v", quantum, err)
	}
	buf := &bytes.Buffer{}
	restored, err := core.RestoreWith(core.RunConfig{
		Backend: to, Clock: eventloop.NewVirtualClock(), Out: buf, MaxSteps: diffBudget,
	}, blob, core.RestoreOptions{ReplayOutput: true})
	if err != nil {
		t.Fatalf("Restore at %d: %v", quantum, err)
	}
	o := finish(restored, buf)
	if o.err != "" {
		t.Fatalf("restored at %d: %v", quantum, o.err)
	}
	return o.out, true
}

// TestArgumentsMatrix runs every row raw and under the four arity
// sub-languages, on both engines: unpreempted; paused at every statement
// (quantum 1) and at every seventh; and parked at a dozen points spread over
// the run, then restored on the other engine.
func TestArgumentsMatrix(t *testing.T) {
	engines := []string{core.BackendTree, core.BackendBytecode}
	for _, p := range argsEdgePrograms {
		for _, backend := range engines {
			if got := runRawOutcome(p.src, backend); got != (outcome{out: p.wantFor("raw")}) {
				t.Errorf("%s/raw/%s: %v, want %q", p.name, backend, got, p.wantFor("raw"))
			}
		}
		for _, mode := range argsModes {
			c, err := core.Compile(p.src, argsOpts(mode))
			if err != nil {
				t.Fatalf("%s/%s: %v", p.name, mode, err)
			}
			want := p.wantFor(mode)
			var steps uint64
			for _, backend := range engines {
				run, buf := guardedRun(t, c, backend)
				before := run.Steps()
				run.Run(nil)
				if o := finish(run, buf); o != (outcome{out: want}) {
					t.Errorf("%s/%s/%s: %v, want %q", p.name, mode, backend, o, want)
				}
				steps = run.Steps() - before
			}
			if mode == "none" || strings.Contains(p.calmOnly, mode) {
				continue
			}
			parked := 0
			for i, backend := range engines {
				for _, quantum := range []uint64{1, 7} {
					got, pauses := preempted(t, c, backend, quantum)
					if got != want || pauses == 0 {
						t.Errorf("%s/%s/%s quantum %d: printed %q over %d pauses, want %q", p.name, mode, backend, quantum, got, pauses, want)
					}
				}
				for q := uint64(1); q < steps; q += steps/12 + 1 {
					if got, ok := parkedAndRestored(t, c, backend, engines[1-i], q); ok {
						parked++
						if got != want {
							t.Errorf("%s/%s parked at %d on %s, restored on %s: printed %q, want %q", p.name, mode, q, backend, engines[1-i], got, want)
						}
					}
				}
			}
			if parked == 0 && p.name != "bound-prepends" && p.name != "eval" { // pinned: a live bound function, eval code
				t.Errorf("%s/%s: never parked", p.name, mode)
			}
		}
	}
}

// TestArgumentsAliasingGap pins a place where raw ≢ stopified: the raw engine
// does not alias formals with arguments (JavaScript's sloppy mode does), and
// of the four arity sub-languages only full, which turns formals into
// arguments[i], gives JavaScript's answer. Both answers are what they were
// before `arguments` went lazy; closing the gap is ROADMAP item 1's to decide
// (mapped arguments in the raw engine, or a fence: full is for code that
// aliases, and raw is not JavaScript there).
func TestArgumentsAliasingGap(t *testing.T) {
	const src = `function f(a, b) { arguments[0] = 5; return a; }
function g(a) { a = 7; return arguments[0]; }
console.log(f(1, 2), g(1));`
	const javascript, unaliased = "5 7\n", "1 1\n"
	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		if got := runRawOutcome(src, backend); got != (outcome{out: unaliased}) {
			t.Errorf("raw/%s: %v, want %q", backend, got, unaliased)
		}
		for _, mode := range argsModes {
			want := unaliased
			if mode == "full" {
				want = javascript
			}
			c, err := core.Compile(src, argsOpts(mode))
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := runStopifiedOutcome(t, c, backend); got != (outcome{out: want}) {
				t.Errorf("%s/%s: %v, want %q", mode, backend, got, want)
			}
		}
	}
}

// TestSnapshotParkedInsideArguments parks a guest inside a function that has
// looked at its arguments, written through them and kept them, under the two
// sub-languages that carry the object in locals, and restores it on all four
// engine legs: identity, contents and — under full — the aliased formal
// survive. The second guest keeps only `() => arguments` out of a function
// that never looked, parks after it returned, and reads the original actuals
// from the restored arrow.
func TestSnapshotParkedInsideArguments(t *testing.T) {
	engines := []string{core.BackendTree, core.BackendBytecode}
	for _, mode := range []string{"mixed", "full"} {
		inside := diffProgram{name: "parked-inside-arguments", opts: argsOpts(mode), src: `
			function spin(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + i * 7) % 1000003; } return s; }
			function f(a, b) {
				var saved = arguments;
				arguments[1] = "written";
				console.log("inside");
				var s = spin(3000);
				return [saved === arguments, arguments.length, arguments[0], arguments[1], arguments[2], b === "written", s].join(",");
			}
			console.log(f("p", "q", "r"));
		`}
		after := diffProgram{name: "arrow-over-arguments", opts: argsOpts(mode), src: `
			function spin(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + i * 7) % 1000003; } return s; }
			function f(a, b) { return () => arguments; }
			var k = f("p", "q", "r");
			console.log("returned");
			var s = spin(3000);
			var args = k();
			console.log(args.length, args[0], args[2], args === k(), s);
		`}
		for _, from := range engines {
			for _, to := range engines {
				t.Run(mode+"/"+from+"-to-"+to, func(t *testing.T) {
					if got := roundTripAt(t, inside, from, to, 1500); got != "inside\n" {
						t.Fatalf("parked having printed %q: not inside f", got)
					}
					if got := roundTripAt(t, after, from, to, 1500); got != "returned\n" {
						t.Fatalf("parked having printed %q: not after f returned", got)
					}
				})
			}
		}
		wantInside := "inside\ntrue,3,p,written,r," + map[string]string{"mixed": "false", "full": "true"}[mode] + ",489407\n"
		if got, _ := runStopifiedOutcome(t, mustCompile(t, inside), core.BackendBytecode); got.out != wantInside {
			t.Errorf("%s: printed %q, want %q", mode, got.out, wantInside)
		}
		if got, _ := runStopifiedOutcome(t, mustCompile(t, after), core.BackendBytecode); got.out != "returned\n3 p r true 489407\n" {
			t.Errorf("%s: printed %q", mode, got.out)
		}
	}
}

func mustCompile(t *testing.T, p diffProgram) *core.Compiled {
	t.Helper()
	c, err := core.Compile(p.src, p.opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKernelsBuildNoArguments: the sixteen programs of the benchmark's
// `kernels` catalogue whose language profile compiles under varargs, mixed or
// full — named here, not imported, so that the catalogue cannot move the gate
// — build almost no arguments objects between them when stopified. Every
// instrumented function names `arguments` (its capture arm saves it), so at
// one object per call this was 234 902; what is left is the activations whose
// frame a closure captured and the few that ask for the object.
func TestKernelsBuildNoArguments(t *testing.T) {
	kernels := []struct{ suite, name string }{
		{"python", "pystone"}, {"python", "nbody"}, {"clojure", "comp_chain"}, {"clojure", "frequencies"},
		{"java", "hashmap"}, {"java", "inheritance"}, // mixed
		{"scheme", "apply_list"}, {"scheme", "sumloop"}, {"cpp", "fixedpoint"}, {"cpp", "crc32"}, // varargs
		{"javascript", "valueof_arith"}, {"javascript", "dynamic_props"}, {"octane", "splay_like"},
		{"octane", "deltablue_like"}, {"kraken", "crypto_like"}, {"kraken", "astar_like"}, // full
	}
	var built, calls uint64
	for _, k := range kernels {
		profile, suite := langs.ByName(k.suite), []langs.Benchmark(nil)
		switch k.suite {
		case "octane":
			profile, suite = langs.JavaScript(), langs.OctaneLike()
		case "kraken":
			profile, suite = langs.JavaScript(), langs.KrakenLike()
		default:
			suite = profile.Benchmarks
		}
		opts := profile.Opts(core.Defaults())
		if opts.Args == "none" {
			t.Fatalf("%s compiles under args none: not an arity-mode kernel", k.suite)
		}
		found := false
		for _, b := range suite {
			if b.Name != k.name {
				continue
			}
			found = true
			c, err := core.Compile(b.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			run, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock()})
			if err != nil {
				t.Fatal(err)
			}
			if err := run.RunToCompletion(); err != nil {
				t.Fatalf("%s.%s: %v", k.suite, k.name, err)
			}
			built += run.In.ArgumentsBuilt()
			calls += run.In.ChunkRuns()
		}
		if !found {
			t.Fatalf("no program %s.%s", k.suite, k.name)
		}
	}
	t.Logf("%d arguments objects over %d chunk runs", built, calls)
	if built > 64 {
		t.Errorf("%d arguments objects built over %d chunk runs, gate 64: a call is building `arguments` nobody asked for", built, calls)
	}
	// 234 902 until the engine answered implicit helpers itself (interp/
	// helpers.go): five in six of those calls were $add, $toPrim, $get and
	// their kin over primitives, which now run no chunk. 35 266 are left.
	if calls < 30_000 {
		t.Errorf("only %d chunk runs: the kernels did not run", calls)
	}
}
