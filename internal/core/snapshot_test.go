package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/snapshot"
)

// TestSnapshotParkedInsideFinally parks a guest inside a try block whose
// return is yet to leave through the finally, and again inside the finally
// block with that return pending, and restores each blob on the engine that
// parked it and on the other one: a continuation is heap frames of
// instrumented JavaScript, nothing of either engine's, so the blob must not
// care. The program says where it is, which is how the test knows where the
// park landed.
func TestSnapshotParkedInsideFinally(t *testing.T) {
	const src = `
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
	`
	c, err := core.Compile(src, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, _ := mustStart(t, c, "")
	before := run.Steps()
	pump(run, 0)
	total := run.Steps() - before // the two loops are twins: a quarter and three quarters of the way
	for _, at := range []struct {
		name    string
		quantum uint64
		printed string
	}{
		{"try", total / 4, "in try\n"},
		{"finally", total * 3 / 4, "in try\nin finally\n"},
	} {
		for _, from := range bothEngines {
			for _, to := range bothEngines {
				t.Run(at.name+"/"+from+"-to-"+to, func(t *testing.T) {
					if got := parkedOnce(t, src, core.Defaults(), from, to, at.quantum); got != at.printed {
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
	t.Run("parked-with-pending", func(t *testing.T) {
		if got := parkedOnce(t, src, core.Defaults(), core.BackendTree, core.BackendTree, 5000); got != "" {
			t.Fatalf("parked having printed %q: not inside the loop", got)
		}
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
		run.Loop.Run()
		if want, got := buf.String(), bufR.String(); want != got {
			t.Fatalf("drain divergence:\n  source:   %q\n  restored: %q", want, got)
		}
		if !strings.Contains(bufR.String(), "t10>t50") {
			t.Fatalf("timers fired out of order: %q", bufR.String())
		}
	})
}

// TestSnapshotPins: every obstruction the encoder's walk meets yields a
// typed PinError of its kind, leaves the run unharmed, and stops pinning once
// the host unbinds it. The three host-made ones are bound as globals before
// the guest starts, after the realm (and its registry) is built; the eval
// closure is the corpus row pin/eval-closure. (Bound functions and Date
// instances used to pin; since wire v2 they serialize, and the rows of
// testdata/conformance/pin hold them to it.)
func TestSnapshotPins(t *testing.T) {
	const loop = `var n = 0; for (var i = 0; i < 60000; i++) { n = (n + i) % 1009; } console.log(n);`
	bind := func(name string, obj func(in *interp.Interp) *interp.Object) func(*core.AsyncRun) {
		return func(run *core.AsyncRun) { run.In.Global.Define(name, interp.ObjectValue(obj(run.In))) }
	}
	nop := func(*interp.Interp, interp.Value, []interp.Value) (interp.Value, error) { return interp.Undefined, nil }
	ev := corpusProgram(t, "pin/eval-closure")
	for _, tc := range []struct {
		name   string
		src    string
		opts   core.Opts
		bind   func(*core.AsyncRun)
		kind   string
		reason string
		unbind []string // the globals that reach the obstruction
	}{
		{"runtime-native", loop, core.Defaults(),
			bind("late", func(in *interp.Interp) *interp.Object { return in.NewNative("late", nop) }),
			snapshot.PinNative, "created at runtime", []string{"late"}},
		{"frameless-continuation", loop, core.Defaults(),
			bind("k", func(in *interp.Interp) *interp.Object { return in.NewNative("continuation", nop) }),
			snapshot.PinNative, "without reified frames", []string{"k"}},
		{"host-payload", loop, core.Defaults(),
			bind("handle", func(in *interp.Interp) *interp.Object {
				o := in.NewPlainObject()
				o.SetExtra(struct{}{})
				return o
			}),
			snapshot.PinHost, "host payload", []string{"handle"}},
		{"eval-closure", ev.src, ev.needs,
			func(*core.AsyncRun) {}, snapshot.PinEval, "eval", []string{"make"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			calm, calmBuf := mustStart(t, c, core.BackendTree)
			pump(calm, 0)
			run, buf := mustStart(t, c, core.BackendTree)
			tc.bind(run)
			if !pump(run, 5000) {
				t.Fatal("program did not park")
			}
			_, err = run.Snapshot()
			var perr *snapshot.PinError
			if !errors.As(err, &perr) || perr.Kind != tc.kind || !strings.Contains(perr.Reason, tc.reason) {
				t.Fatalf("Snapshot = %v, want a *snapshot.PinError of kind %q naming %q", err, tc.kind, tc.reason)
			}
			// The failed snapshot must not have perturbed the run.
			pump(run, 0)
			if got, want := transcript(run, buf), transcript(calm, calmBuf); got != want {
				t.Fatalf("pinned run printed %q, want %q", got, want)
			}
			for _, name := range tc.unbind {
				if _, ok := run.In.Global.Lookup(name); !ok {
					t.Fatalf("no global %s to unbind", name)
				}
				run.In.Global.Define(name, interp.Undefined)
			}
			if _, err := run.Snapshot(); err != nil {
				t.Fatalf("Snapshot once %v are unbound: %v", tc.unbind, err)
			}
		})
	}
}

// goldenParkedSrc is the program inside testdata/v4_parked.blob. The blob is
// the Snapshot() of goldenParkedSrc after pump(run, 5000) on the tree engine,
// last re-captured when the prelude's functions became intrinsics, which
// changed the host registry's Sum: parked mid-loop holding
// what wire v2 made data — a bound constructor, a bound timer callback with
// a forwarded extra arg, a cancelled timer handle, a Date — beside closures
// and pending timers, under a continuation whose frames are v4's
// [label, fn, self, saved…]. testdata/v4_parked.golden is the output of the
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
	blob, err := os.ReadFile("testdata/v4_parked.blob")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/v4_parked.golden")
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
	for _, backend := range bothEngines {
		t.Run(backend, func(t *testing.T) {
			buf := &bytes.Buffer{}
			run, err := core.Restore(core.RunConfig{
				Backend: backend, Clock: eventloop.NewVirtualClock(), Out: buf, MaxSteps: stepBudget,
			}, blob)
			if err != nil {
				t.Fatalf("decoding the golden blob: %v", err)
			}
			// The meter resumes at the larger of the header's figure and
			// what the decode charged.
			if run.Steps() != info.Steps || run.MemUsed() < info.MemUsed {
				t.Fatalf("restored accounting (%d, %d), blob header (%d, %d): want the steps and at least the bytes",
					run.Steps(), run.MemUsed(), info.Steps, info.MemUsed)
			}
			pump(run, 0)
			if got := transcript(run, buf); got != string(want) {
				t.Fatalf("golden run diverged:\n  got:  %q\n  want: %q", got, want)
			}
		})
	}
}

// TestRestoreRefusesOtherVersions: the wire-v3 golden blob — the same guest
// parked by the last build whose frames were {label, locals, fn, self}
// objects, kept only to be refused — fails at the version byte with both
// version numbers in the error, from the full decode and from the
// header-only read alike.
func TestRestoreRefusesOtherVersions(t *testing.T) {
	cfg := core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}}
	v3, err := os.ReadFile("testdata/v3_parked.blob")
	if err != nil {
		t.Fatal(err)
	}
	for what, try := range map[string]func() error{
		"Restore":      func() error { _, err := core.Restore(cfg, v3); return err },
		"SnapshotMeta": func() error { _, err := core.SnapshotMeta(v3); return err },
	} {
		err := try()
		if err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "version 4") {
			t.Errorf("%s on a v3 blob = %v, want an error naming versions 3 and 4", what, err)
		}
	}
}

// TestRestoreMetersWhatTheDecodeBuilt: a blob whose header claims no memory
// still brings its heap in metered — the restored meter reads at least what
// decoding the guest's graph charged (snapshot.Decoded.Charged), here at
// least 100 bytes for each of the 2000 closures the guest built before it
// parked in its second loop. It read 0 while the header's figure replaced
// the decode's.
func TestRestoreMetersWhatTheDecodeBuilt(t *testing.T) {
	c, err := core.Compile(`
		var fs = [];
		for (var i = 0; i < 2000; i++) { fs.push(function () { return i; }); }
		var n = 0;
		while (n < 1000000) { n++; }
		console.log(fs.length, n);
	`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, _ := mustStart(t, c, core.BackendBytecode)
	if !pump(run, 40000) {
		t.Fatal("did not park")
	}
	blob, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The header: magic, version, the host metadata's length and bytes,
	// the steps, then the memory figure, each a uvarint.
	off := 5
	n, k := binary.Uvarint(blob[off:])
	off += k + int(n)
	_, k = binary.Uvarint(blob[off:])
	off += k
	_, k = binary.Uvarint(blob[off:])
	claimsNone := append(append(append([]byte(nil), blob[:off]...), 0), blob[off+k:]...)
	if info, err := core.SnapshotMeta(claimsNone); err != nil || info.MemUsed != 0 {
		t.Fatalf("rewritten header reads %+v, %v: want MemUsed 0", info, err)
	}
	restored, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}}, claimsNone)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, least := restored.MemUsed(), uint64(2000*100); got < least {
		t.Fatalf("restored meter reads %d bytes for a heap of 2000 closures, want at least %d", got, least)
	}
}

// TestSnapshotBuffersComeBackClean: the encoder writes a blob's sections
// into pooled buffers, numbers its nodes in pooled tables, and hands both
// back. Encoding guest A, then a larger guest B, then A twice more must give
// A the same bytes three times and B a blob that restores: a buffer or a
// table handed back unreset carries one blob's bytes or node numbers into
// the next. After B, A is small against the tables' capacity, so they hand
// back its nodes one by one; the third A reads what the second left. A is encoded directly, with a fixed timestamp, so its two blobs can
// be compared byte for byte; B goes through Snapshot and Restore.
func TestSnapshotBuffersComeBackClean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool cache
	parked := func(src string) (*core.Compiled, *core.AsyncRun) {
		c, err := core.Compile(src, core.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		run, _ := mustStart(t, c, core.BackendTree)
		if !pump(run, 5000) {
			t.Fatal("program did not park")
		}
		return c, run
	}
	cA, runA := parked(`var n = 0; for (var i = 0; i < 60000; i++) { n = (n + i) % 1009; } console.log(n);`)
	encodeA := func() []byte {
		blob, err := snapshot.Encode(snapshot.Input{In: runA.In, RT: runA.RT, Code: cA.CodeTable(), Reg: runA.Registry()})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	const srcB = `var xs = []; for (var i = 0; i < 3000; i++) { xs.push({ i: i, s: "item" + i }); } console.log(xs.length, xs[2999].s);`
	_, runB := parked(srcB)

	first := encodeA()
	blobB, err := runB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobB) <= len(first) {
		t.Fatalf("B's blob (%d bytes) is not larger than A's (%d)", len(blobB), len(first))
	}
	for i := 0; i < 2; i++ {
		if again := encodeA(); !bytes.Equal(first, again) {
			t.Fatalf("A encoded to %d bytes, then to %d after B (%d)", len(first), len(again), i+1)
		}
	}
	buf := &bytes.Buffer{}
	restored, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: buf, MaxSteps: stepBudget}, blobB)
	if err != nil {
		t.Fatalf("restoring B: %v", err)
	}
	pump(restored, 0)
	if got := transcript(restored, buf); got != "3000 item2999\n" {
		t.Fatalf("restored B printed %q", got)
	}
}

// TestSnapshotOutputSinkPin: an output sink the codec cannot carry by value
// pins the guest with a clear reason instead of dropping output.
func TestSnapshotOutputSinkPin(t *testing.T) {
	c, err := core.Compile(`var n = 0; for (var i = 0; i < 60000; i++) { n += i; } console.log(n);`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, err := start(c, config("", writerOnly{&bytes.Buffer{}}, stepBudget))
	if err != nil {
		t.Fatal(err)
	}
	if !pump(run, 5000) {
		t.Fatal("program did not park")
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

// writerOnly hides everything of a sink but Write: the codec cannot read
// back what was printed to it.
type writerOnly struct{ io.Writer }

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
	run, _ := mustStart(t, c, core.BackendTree)
	if !pump(run, 8000) {
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
	// The meter resumes at the larger of the snapshot's figure and what the
	// decode charged (TestRestoreMetersWhatTheDecodeBuilt).
	if restored.Steps() != steps || restored.MemUsed() < mem {
		t.Fatalf("restored accounting (%d, %d), snapshot (%d, %d): want the steps and at least the bytes",
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
