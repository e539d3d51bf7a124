package core_test

import (
	"bytes"
	"errors"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/snapshot"
)

// Snapshot round-trip tests: a guest parked at an arbitrary yield point must
// serialize, restore into a fresh realm (same process here; the CI smoke
// test covers another process), and resume to exactly the outcome of never
// having been serialized. The baseline leg is pause-resume-in-place, which
// has identical scheduling semantics to park-restore by construction; for
// programs that are idle (no pending timers) at the park point, the calm
// run is also asserted equal, per the paper's transparency claim.

// parkQuantum picks a deterministic but program-varied statement count for
// the injected pause, so the corpus collectively parks at many different
// program points without flaky randomness.
func parkQuantum(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return 200 + h.Sum64()%20_000
}

// runToPark starts the program and pumps until it parks at the injected
// quantum pause or finishes. It returns the run and its output sink.
func runToPark(t testing.TB, c *core.Compiled, backend string, quantum uint64) (*core.AsyncRun, *bytes.Buffer) {
	t.Helper()
	var run *core.AsyncRun
	buf := &bytes.Buffer{}
	run, err := c.NewRun(core.RunConfig{
		Backend:      backend,
		Clock:        eventloop.NewVirtualClock(),
		Out:          buf,
		Seed:         1,
		MaxSteps:     diffBudget,
		QuantumSteps: quantum,
		OnQuantum:    func() { run.Pause(nil) },
	})
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	run.Run(nil)
	for !run.Paused() && run.Loop.Len() > 0 {
		if run.Finished() {
			if _, err := run.Result(); err != nil {
				break
			}
		}
		run.Loop.RunOne()
	}
	return run, buf
}

// finish resumes a parked run (if parked) and drives it to completion,
// draining timers as a page would, and flattens the result.
func finish(run *core.AsyncRun, buf *bytes.Buffer) outcome {
	var o outcome
	if run.Paused() {
		run.Resume()
	}
	if err := run.Wait(); err != nil {
		o.err = err.Error()
	}
	run.Loop.Run()
	o.out = buf.String()
	return o
}

// roundTripProgram round-trips p at its per-program park point. A quantum
// is statements of the program's own progress, so a short program can finish
// inside the one its name hashes to: that quantum is halved until the
// program parks (or is too small to mean anything), and roundTripAt skips
// what still finishes first.
func roundTripProgram(t *testing.T, p diffProgram, backend string) {
	t.Helper()
	quantum := parkQuantum(p.name)
	if c, err := core.Compile(p.src, p.opts); err == nil {
		for ; quantum > 400; quantum /= 2 {
			if run, _ := runToPark(t, c, backend, quantum); run.Paused() {
				break
			}
		}
	}
	roundTripAt(t, p, backend, backend, quantum)
}

// roundTripAt parks p after quantum statements on one engine and restores
// the blob on another (or the same), returning what the parked guest had
// printed by then — which is how a caller knows where the park landed.
func roundTripAt(t *testing.T, p diffProgram, backend, restoreBackend string, quantum uint64) (printedAtPark string) {
	t.Helper()
	c, err := core.Compile(p.src, p.opts)
	if err != nil {
		t.Skipf("does not compile under these options: %v", err)
	}

	// Leg A: pause at the quantum, resume in place.
	runA, bufA := runToPark(t, c, backend, quantum)
	parked := runA.Paused()
	idleAtPark := parked && runA.Loop.Len() == 0
	if !parked {
		// The program finished before the quantum fired; nothing to park.
		t.Skipf("finished before quantum %d", quantum)
	}

	// Leg B: identical run, but serialize at the park point and resume a
	// restored twin instead.
	runB, bufB := runToPark(t, c, backend, quantum)
	if !runB.Paused() {
		t.Fatalf("leg B did not park where leg A did")
	}
	printedAtPark = bufB.String()
	blob, err := runB.Snapshot()
	if perr := (*snapshot.PinError)(nil); errors.As(err, &perr) {
		// Pinned guests (live bound functions, Date instances, eval
		// closures) are a documented boundary, not a failure — but the
		// pinned run must be unharmed by the attempt.
		inPlace := finish(runB, bufB)
		if a := finish(runA, bufA); a != inPlace {
			t.Fatalf("pinned snapshot attempt perturbed the run:\n  A: %v\n  B: %v", a, inPlace)
		}
		t.Skipf("pinned: %v", err)
	}
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	bufR := &bytes.Buffer{}
	restored, err := core.RestoreWith(core.RunConfig{
		Backend:  restoreBackend,
		Clock:    eventloop.NewVirtualClock(),
		Out:      bufR,
		MaxSteps: diffBudget,
	}, blob, core.RestoreOptions{ReplayOutput: true})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}

	a := finish(runA, bufA)
	b := finish(restored, bufR)
	if a != b {
		t.Fatalf("snapshot round-trip diverged:\n  in-place: %v\n  restored: %v", a, b)
	}
	if idleAtPark && !strings.Contains(b.err, "step budget") {
		// No pending tasks at the park point: pausing cannot have reordered
		// anything, so the calm (never-paused) run must match too. The one
		// exception is a run aborted by the step budget: re-entering frames
		// after a pause costs a few statements of its own, so a budgeted
		// program exhausts at a slightly different output point than the
		// never-paused run (equally for in-place resume and restore, as the
		// A/B comparison above proves).
		calm, _ := runStopifiedOutcome(t, c, restoreBackend)
		if calm != b {
			t.Fatalf("restored run diverged from calm run:\n  calm:     %v\n  restored: %v", calm, b)
		}
	}
	return printedAtPark
}

// TestSnapshotRoundTripDifferential round-trips the whole corpus through the
// codec at per-program park points, on both engines.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		for _, p := range corpusPrograms(t) {
			p, backend := p, backend
			t.Run(backend+"/"+p.name, func(t *testing.T) {
				roundTripProgram(t, p, backend)
			})
		}
	}
}

// adversarialPrograms target the codec's hard cases: cyclic graphs, shape
// re-interning with accessors and deletions, escaped closures over shared
// frames, host-object mutation deltas, and value edge cases (-0, NaN,
// numeric-looking keys).
func adversarialPrograms() []diffProgram {
	opts := core.Defaults()
	opts.Getters = true
	mk := func(name, src string) diffProgram {
		return diffProgram{name: name, src: src, opts: opts}
	}
	return []diffProgram{
		mk("cycles", `
			var a = {name: "a"};
			var b = {name: "b", peer: a};
			a.peer = b;
			a.self = a;
			var ring = [a, b];
			ring.push(ring);
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + i) % 97; }
			console.log(a.peer.peer.self.name, b.peer.name, ring[2][0].name, n);
		`),
		mk("accessors", `
			var hits = 0;
			var o = {base: 10};
			Object.defineProperty(o, "twice", {
				get: function () { hits++; return this.base * 2; },
				set: function (v) { this.base = v; },
				enumerable: true
			});
			var before = o.twice;
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + o.twice) % 1000003; }
			o.twice = 21;
			console.log(before, o.twice, o.base, hits, n);
		`),
		mk("escaped-closures", `
			function counter(start) {
				var n = start;
				return {
					inc: function () { n++; return n; },
					dec: function () { n--; return n; },
					read: function () { return n; }
				};
			}
			var c1 = counter(100), c2 = counter(-5);
			var sum = 0;
			for (var i = 0; i < 50000; i++) {
				sum += c1.inc() + c2.dec();
			}
			console.log(c1.read(), c2.read(), sum % 1000003);
		`),
		mk("weird-keys", `
			var o = {};
			o[-0] = "neg-zero-key";
			o[NaN] = "nan-key";
			o["0"] = "zero-string";
			o[""] = "empty";
			o["__proto__x"] = "protoish";
			var vals = [0/-1, 0/0, 1/0, -1/0, 9007199254740993];
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + i * i) % 65521; }
			console.log(o[0], o[NaN], o[""], o["__proto__x"], vals.join(","), n);
		`),
		mk("shape-churn", `
			var objs = [];
			for (var i = 0; i < 50; i++) {
				var o = {a: i};
				if (i % 2) { o.b = i * 2; }
				if (i % 3) { o.c = i * 3; delete o.a; }
				o["k" + (i % 7)] = i;
				objs.push(o);
			}
			var n = 0;
			for (var i = 0; i < 60000; i++) {
				var o = objs[i % objs.length];
				n = (n + (o.a || 0) + (o.b || 0) + (o.c || 0)) % 1000003;
			}
			console.log(n, JSON.stringify ? "js" : "nojs", objs.length);
		`),
		mk("host-deltas", `
			Object.prototype.tagged = "yes";
			Array.prototype.second = function () { return this[1]; };
			var arr = [10, 20, 30];
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + arr.second()) % 99991; }
			console.log(({}).tagged, arr.second(), n);
		`),
		// The delta diff's two walks: Math keeps its key sequence and changes
		// one value (compared in place, position by position); String.prototype
		// loses a key and gets it back at the end, and Number gains one (diffed
		// by key).
		mk("host-deltas-in-place", `
			Math.E = 3;
			var at = String.prototype.charAt;
			delete String.prototype.charAt;
			String.prototype.charAt = function (i) { return "<" + at.call(this, i) + ">"; };
			Number.added = "n";
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + Math.E * i) % 99991; }
			console.log(Math.E, Math.PI > 3.14, "abc".charAt(1), Number.added, typeof Math.abs, n);
		`),
		mk("prototype-chains", `
			function Base() { this.kind = "base"; }
			Base.prototype.describe = function () { return "I am " + this.kind; };
			function Derived() { Base.call(this); this.kind = "derived"; }
			Derived.prototype = Object.create(Base.prototype);
			Derived.prototype.shout = function () { return this.describe().toUpperCase(); };
			var d = new Derived();
			var n = 0;
			for (var i = 0; i < 50000; i++) { n = (n + d.shout().length) % 4093; }
			console.log(d.describe(), d.shout(), n);
		`),
		mk("rand-state", `
			var before = [];
			for (var i = 0; i < 3; i++) { before.push(Math.random()); }
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + i) % 31; }
			var after = [];
			for (var i = 0; i < 3; i++) { after.push(Math.random()); }
			console.log(before.length, after.length, before[0] < 1, after[0] < 1, after.join(",").length > 5);
		`),
		mk("sparse-and-strings", `
			var a = [];
			a[0] = "start";
			a[50] = "mid";
			a.big = "non-index";
			var s = "";
			for (var i = 0; i < 40000; i++) { s = "x"; }
			var unicode = "café ☃";
			console.log(a.length, a[50], a.big, s.length, unicode.length, unicode);
		`),
		mk("try-catch-park", `
			function risky(i) {
				if (i % 1000 === 999) { throw {code: i}; }
				return i * 2;
			}
			var caught = 0, sum = 0;
			for (var i = 0; i < 30000; i++) {
				try { sum = (sum + risky(i)) % 1000003; }
				catch (e) { caught += 1; }
			}
			console.log(caught, sum);
		`),
		// Wherever the park lands it is in or about to leave a try
		// statement with a finally: by return, throw, break and continue,
		// through a catch that handles or rethrows, through a finally that
		// overrides, two statements deep. The finally blocks call nothing,
		// so the park is never inside one: there the instrumentation keeps a
		// pending return and no other completion (§3.1.1), which
		// TestSnapshotParkedInsideFinally covers.
		mk("finally-park", `
			function step(i) { return (i * 7 + 3) % 11; }
			function guarded(i) {
				var acc = 0;
				for (var k = 0; k < 3; k++) {
					try {
						try {
							acc += step(i + k);
							if (i % 7 === 0) { throw {at: i}; }
							if (i % 5 === 0) { return acc; }
							if (i % 3 === 0) { continue; }
							if (i % 11 === 0) { break; }
							acc += 1;
						} catch (e) {
							acc = -e.at;
							if (i % 14 === 0) { throw e; }
						} finally {
							cleanups = (cleanups + (k * 7 + 3) % 11) % 9973;
						}
					} finally {
						if (i % 33 === 0) { return "override"; }
					}
				}
				return acc + 1000;
			}
			var cleanups = 0, log = [];
			for (var i = 0; i < 1500; i++) {
				try { log.push(guarded(i)); } catch (e) { log.push("E" + e.at); }
				if (log.length > 40) { log = [log.join("").length]; }
			}
			console.log(cleanups, log.join(","));
		`),
	}
}

// TestSnapshotAdversarial round-trips the hard-case corpus on both engines.
func TestSnapshotAdversarial(t *testing.T) {
	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		for _, p := range adversarialPrograms() {
			p, backend := p, backend
			t.Run(backend+"/"+p.name, func(t *testing.T) {
				roundTripProgram(t, p, backend)
			})
		}
	}
}

// TestSnapshotParkedInsideFinally parks a guest inside a try block whose
// return is yet to leave through the finally, and again inside the finally
// block with that return pending, and restores each blob on the engine that
// parked it and on the other one: a continuation is heap frames of
// instrumented JavaScript, nothing of either engine's, so the blob must not
// care. The program says where it is, which is how the test knows where the
// park landed.
func TestSnapshotParkedInsideFinally(t *testing.T) {
	p := diffProgram{name: "parked-inside-finally", opts: core.Defaults(), src: `
		function step(i) { return (i * 7 + 3) % 11; }
		function work(n) {
			var s = 0;
			try {
				console.log("in try");
				for (var i = 0; i < n; i++) { s = (s + step(i)) % 1000003; }
				return s;
			} finally {
				console.log("in finally");
				for (var j = 0; j < n; j++) { done = (done + step(j)) % 1000003; }
				console.log("leaving finally");
			}
		}
		var done = 0;
		console.log(work(2000), done);
	`}
	c, err := core.Compile(p.src, p.opts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock()})
	if err == nil {
		err = run.RunToCompletion()
	}
	if err != nil {
		t.Fatal(err)
	}
	total := run.In.Steps // the two loops are twins: a quarter and three quarters of the way
	engines := []string{core.BackendTree, core.BackendBytecode}
	for _, at := range []struct {
		name    string
		quantum uint64
		printed string
	}{
		{"try", total / 4, "in try\n"},
		{"finally", total * 3 / 4, "in try\nin finally\n"},
	} {
		for _, from := range engines {
			for _, to := range engines {
				t.Run(at.name+"/"+from+"-to-"+to, func(t *testing.T) {
					if got := roundTripAt(t, p, from, to, at.quantum); got != at.printed {
						t.Fatalf("parked having printed %q, want %q", got, at.printed)
					}
				})
			}
		}
	}
}

// TestSnapshotTimers parks a guest whose event loop holds pending timers and
// checks the restored twin fires them in the same order; it also snapshots
// after $main completed (Done state, timers still draining).
func TestSnapshotTimers(t *testing.T) {
	src := `
		var log = [];
		setTimeout(function () { log.push("t50"); console.log(log.join(">")); }, 50);
		setTimeout(function () { log.push("t10"); }, 10);
		var n = 0;
		for (var i = 0; i < 60000; i++) { n = (n + i) % 101; }
		log.push("main" + n);
	`
	p := diffProgram{name: "timers", src: src, opts: core.Defaults()}
	t.Run("parked-with-pending", func(t *testing.T) {
		roundTripProgram(t, p, core.BackendTree)
	})

	t.Run("done-draining", func(t *testing.T) {
		c, err := core.Compile(src, core.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		buf := &bytes.Buffer{}
		run, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: buf})
		if err != nil {
			t.Fatal(err)
		}
		run.Run(nil)
		for !run.Finished() {
			run.Loop.RunOne()
		}
		// $main is done; both timers are still queued. Park here.
		blob, err := run.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot of done-draining run: %v", err)
		}
		info, err := core.SnapshotMeta(blob)
		if err != nil {
			t.Fatalf("SnapshotMeta: %v", err)
		}
		if !info.Done || info.Paused {
			t.Fatalf("meta = %+v, want Done && !Paused", info)
		}
		bufR := &bytes.Buffer{}
		restored, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: bufR}, blob)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if !restored.Finished() {
			t.Fatal("restored Done guest should report Finished")
		}
		restored.Loop.Run()
		want := finish(run, buf)
		got := outcome{out: bufR.String()}
		if want != got {
			t.Fatalf("drain divergence:\n  source:   %v\n  restored: %v", want, got)
		}
		if !strings.Contains(got.out, "t10>t50") {
			t.Fatalf("timers fired out of order: %q", got.out)
		}
	})
}

// pinShrinkPrograms is state that used to pin a guest resident — bound
// functions built from captured-native closures, Date instances whose
// methods closed over Go time calls, fire-and-forget timer handles — and
// now serializes as plain data (interp.BoundFunction, interp.DateData, the
// ledger's TimerID/Cancelled fields). Each program holds such state live
// across the park point; a PinError here is a regression, not a boundary.
func pinShrinkPrograms() []diffProgram {
	mk := func(name, src string) diffProgram {
		return diffProgram{name: name, src: src, opts: core.Defaults()}
	}
	return []diffProgram{
		mk("bound-chain", `
			function add3(a, b, c) { return a + b + c; }
			var add1 = add3.bind(null, 1);
			var add2 = add1.bind({ignored: true}, 10);
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + add2(i)) % 1000003; }
			console.log(add3.length, add1.length, add2.length, add2(5), n);
		`),
		mk("bound-construct", `
			function Point(x, y) { this.x = x; this.y = y; }
			Point.prototype.norm = function () { return this.x * this.x + this.y * this.y; };
			var P7 = Point.bind({hijack: "me"}, 7);
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + i) % 4093; }
			var p = new P7(9);
			console.log(p.x, p.y, p.norm(), p instanceof Point, p instanceof P7,
				p.hijack === undefined, n);
		`),
		mk("date-instances", `
			var d0 = new Date();
			var t0 = d0.getTime();
			var fixed = new Date(86400000);
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + i) % 101; }
			var stable = d0.getTime() === t0 && d0.valueOf() === t0;
			console.log(typeof t0, stable, fixed.getTime(), typeof Date(), n);
		`),
		mk("timer-handles", `
			var log = ["start"];
			var t1 = setTimeout(function (a, b) {
				log.push("t1" + a + b);
				console.log(log.join(","));
			}, 30, "x", "y");
			var t2 = setTimeout(function () { log.push("t2-should-not-fire"); }, 20);
			var t3 = setTimeout(function () { log.push("t3"); }, 10);
			clearTimeout(t2);
			clearTimeout(9999);
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + i) % 97; }
			log.push("main" + n + ":" + t1 + ":" + t2 + ":" + t3);
		`),
	}
}

// roundTripNoPin is roundTripProgram with the pin escape hatch closed: the
// program must serialize, restore, and finish byte-identically to the
// in-place leg.
func roundTripNoPin(t *testing.T, p diffProgram, backend string) {
	t.Helper()
	c, err := core.Compile(p.src, p.opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	quantum := parkQuantum(p.name)

	runA, bufA := runToPark(t, c, backend, quantum)
	if !runA.Paused() {
		t.Fatalf("program finished before quantum %d; grow its main loop", quantum)
	}
	runB, bufB := runToPark(t, c, backend, quantum)
	if !runB.Paused() {
		t.Fatal("leg B did not park where leg A did")
	}
	blob, err := runB.Snapshot()
	var perr *snapshot.PinError
	if errors.As(err, &perr) {
		t.Fatalf("pin-shrink regression: %s state pinned the guest (kind %q): %v",
			p.name, perr.Kind, err)
	}
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	_ = bufB

	bufR := &bytes.Buffer{}
	restored, err := core.RestoreWith(core.RunConfig{
		Backend:  backend,
		Clock:    eventloop.NewVirtualClock(),
		Out:      bufR,
		MaxSteps: diffBudget,
	}, blob, core.RestoreOptions{ReplayOutput: true})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	a := finish(runA, bufA)
	b := finish(restored, bufR)
	if a != b {
		t.Fatalf("round trip diverged:\n  in-place: %v\n  restored: %v", a, b)
	}
	if a.out == "" || a.err != "" {
		t.Fatalf("corpus program did not produce clean output: %v", a)
	}
}

// TestSnapshotPinShrink round-trips guests holding live bound functions
// (called and constructed), Date instances, and pending cancelled and
// uncancelled timers with forwarded extra args, on both engines. These were
// all PinError cases before wire v2.
func TestSnapshotPinShrink(t *testing.T) {
	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		for _, p := range pinShrinkPrograms() {
			p, backend := p, backend
			t.Run(backend+"/"+p.name, func(t *testing.T) {
				roundTripNoPin(t, p, backend)
			})
		}
	}
}

// TestSnapshotPins checks that each still-documented non-serializable
// obstruction yields a typed PinError naming it, and leaves the guest
// runnable. (Bound functions and Date instances used to live in this list;
// since wire v2 they serialize — TestSnapshotPinShrink covers them.)
func TestSnapshotPins(t *testing.T) {
	evalOpts := core.Defaults()
	evalOpts.Eval = true
	cases := []struct {
		name, src  string
		opts       core.Opts
		wantKind   string
		wantReason string
	}{
		{"eval-closure", `
			eval("make = function (n) { return function (m) { return n + m; }; };");
			var f = make(7);
			var n = 0;
			for (var i = 0; i < 60000; i++) { n = (n + f(i)) % 1000003; }
			console.log(n);
		`, evalOpts, snapshot.PinEval, "eval"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			run, buf := runToPark(t, c, core.BackendTree, 5000)
			if !run.Paused() {
				t.Fatal("program did not park")
			}
			_, err = run.Snapshot()
			var perr *snapshot.PinError
			if !errors.As(err, &perr) {
				t.Fatalf("Snapshot = %v, want *snapshot.PinError", err)
			}
			if perr.Kind != tc.wantKind {
				t.Fatalf("pin kind = %q, want %q", perr.Kind, tc.wantKind)
			}
			if !strings.Contains(perr.Reason, tc.wantReason) {
				t.Fatalf("pin reason %q does not mention %q", perr.Reason, tc.wantReason)
			}
			// The failed snapshot must not have perturbed the run.
			o := finish(run, buf)
			if o.err != "" || o.out == "" {
				t.Fatalf("pinned run damaged: %v", o)
			}
		})
	}
}

// goldenParkedSrc is the program inside testdata/v3_parked.blob. The blob is
// runToPark(goldenParkedSrc, tree engine, quantum 5000).Snapshot() as built
// by the commit that made wire version 3: parked mid-loop holding what wire
// v2 made data — a bound constructor, a bound timer callback with a
// forwarded extra arg, a cancelled timer handle, a Date — beside closures
// and pending timers, under a continuation whose frames are v3's
// {label, locals, fn, self}. testdata/v3_parked.golden is the output of the
// same program run without parking.
const goldenParkedSrc = `
var log = ["start"];
function mk(n) { return function () { log.push("tick" + n); }; }
function Point(x, y) { this.x = x; this.y = y; }
var P7 = Point.bind(null, 7);
var born = new Date(86400000);
function say(tag, extra) { log.push(tag + extra); }
var dead = setTimeout(say, 10, "never", 0);
clearTimeout(dead);
setTimeout(mk(1), 20);
setTimeout(say.bind(null, "bound"), 30, "!");
setTimeout(function () {
  var p = new P7(9);
  log.push("p" + p.x + p.y, born.getTime() === 86400000 ? "date-ok" : "date-drift");
  console.log(log.join(","));
}, 40);
var n = 0;
for (var i = 0; i < 80000; i++) { n = (n + i) % 9973; }
log.push("main" + n);
`

// TestSnapshotWireGolden is the format-drift tripwire: a checked-in blob
// written by an earlier build of this wire version must keep restoring, on
// both engines, to the output it was captured with. If this fails after a
// deliberate format, prelude, or host-graph change, bump snapshot.Version
// and re-capture the blob as goldenParkedSrc's comment describes.
func TestSnapshotWireGolden(t *testing.T) {
	blob, err := os.ReadFile("testdata/v3_parked.blob")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/v3_parked.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := blob[4]; got != snapshot.Version {
		t.Fatalf("golden blob version byte = %d, want %d", got, snapshot.Version)
	}
	info, err := core.SnapshotMeta(blob)
	if err != nil {
		t.Fatalf("SnapshotMeta on the golden blob: %v", err)
	}
	if info.Steps == 0 || info.MemUsed == 0 || !info.Paused {
		t.Fatalf("golden blob is not a paused guest with accounting: %+v", info)
	}
	for _, backend := range []string{core.BackendTree, core.BackendBytecode} {
		t.Run(backend, func(t *testing.T) {
			buf := &bytes.Buffer{}
			run, err := core.Restore(core.RunConfig{
				Backend: backend, Clock: eventloop.NewVirtualClock(), Out: buf, MaxSteps: diffBudget,
			}, blob)
			if err != nil {
				t.Fatalf("decoding the golden blob: %v", err)
			}
			if run.Steps() != info.Steps || run.MemUsed() != info.MemUsed {
				t.Fatalf("restored accounting (%d, %d) != blob header (%d, %d)",
					run.Steps(), run.MemUsed(), info.Steps, info.MemUsed)
			}
			if o := finish(run, buf); o.err != "" || o.out != string(want) {
				t.Fatalf("golden run diverged:\n  got:  %v\n  want: out=%q", o, want)
			}
		})
	}
}

// TestRestoreRefusesOtherVersions: the wire-v2 golden blob — the same guest
// parked by the last build whose frames carried reenter closures, kept only
// to be refused — fails at the version byte with both version numbers in
// the error, from the full decode and from the header-only read alike.
func TestRestoreRefusesOtherVersions(t *testing.T) {
	cfg := core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}}
	v2, err := os.ReadFile("testdata/v2_parked.blob")
	if err != nil {
		t.Fatal(err)
	}
	for what, try := range map[string]func() error{
		"Restore":      func() error { _, err := core.Restore(cfg, v2); return err },
		"SnapshotMeta": func() error { _, err := core.SnapshotMeta(v2); return err },
	} {
		err := try()
		if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "version 3") {
			t.Errorf("%s on a v2 blob = %v, want an error naming versions 2 and 3", what, err)
		}
	}
}

// TestSnapshotOutputSinkPin: an output sink the codec cannot carry by value
// pins the guest with a clear reason instead of dropping output.
func TestSnapshotOutputSinkPin(t *testing.T) {
	c, err := core.Compile(`var n = 0; for (var i = 0; i < 60000; i++) { n += i; } console.log(n);`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var run *core.AsyncRun
	sink := &nullableBuf{} // has String but no Bytes
	run, err = c.NewRun(core.RunConfig{
		Clock: eventloop.NewVirtualClock(), Out: sink,
		QuantumSteps: 5000, OnQuantum: func() { run.Pause(nil) },
	})
	if err != nil {
		t.Fatal(err)
	}
	run.Run(nil)
	for !run.Paused() && run.Loop.Len() > 0 {
		run.Loop.RunOne()
	}
	_, err = run.Snapshot()
	var perr *snapshot.PinError
	if !errors.As(err, &perr) {
		t.Fatalf("Snapshot = %v, want *snapshot.PinError for opaque sink", err)
	}
	if !strings.Contains(perr.Reason, "output sink") {
		t.Fatalf("pin reason %q should mention the output sink", perr.Reason)
	}
}

// TestSnapshotAccounting: cumulative step and memory counters survive the
// round trip, so budgets bound a guest's whole life across parks.
func TestSnapshotAccounting(t *testing.T) {
	c, err := core.Compile(`
		var arr = [];
		for (var i = 0; i < 20000; i++) { arr.push({i: i}); }
		console.log(arr.length);
	`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, _ := runToPark(t, c, core.BackendTree, 8000)
	if !run.Paused() {
		t.Fatal("did not park")
	}
	steps, mem := run.Steps(), run.MemUsed()
	if steps == 0 || mem == 0 {
		t.Fatalf("expected nonzero accounting at park, got steps=%d mem=%d", steps, mem)
	}
	blob, err := run.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	info, err := core.SnapshotMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps != steps || info.MemUsed != mem {
		t.Fatalf("meta accounting (%d, %d) != live (%d, %d)", info.Steps, info.MemUsed, steps, mem)
	}
	restored, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}}, blob)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Steps() != steps || restored.MemUsed() != mem {
		t.Fatalf("restored accounting (%d, %d) != snapshot (%d, %d)",
			restored.Steps(), restored.MemUsed(), steps, mem)
	}
	restored.Resume()
	if err := restored.Wait(); err != nil {
		t.Fatalf("restored run failed: %v", err)
	}
	if restored.Steps() <= steps {
		t.Fatal("restored run did not continue counting from the snapshot figure")
	}
}
