package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/snapshot"
	"repro/internal/supervisor"
)

// Corrupt-blob robustness: Restore and SnapshotMeta are documented as safe
// on untrusted cross-process blobs — any corruption must surface as an
// error (or a still-terminating guest), never a panic or an unkillable
// loop. These tests mutate a real snapshot byte-by-byte and splice in the
// overflow patterns a crafted blob would use (uvarint lengths and refs near
// 2^64 that wrap naive bounds checks to negative ints).

// corruptSrc exercises every decoder table: objects with props and elems,
// closures over escaped envs, accessors, and a pending timer.
const corruptSrc = `
var shared = { n: 0, arr: [1, 2.5, "x", null] };
Object.defineProperty(shared, "twice", { get: function () { return shared.n * 2; } });
function mk(i) { return function () { shared.n = shared.n + i; return shared.twice; }; }
var fs = [mk(1), mk(2), mk(3)];
setTimeout(function () { print("late " + fs[0]()); }, 5);
var i = 0;
while (i < 200) { fs[i % 3](); i = i + 1; }
print("done " + shared.n);
`

// corruptBudget keeps each surviving mutant's resume cheap; the pristine
// program finishes well inside it.
const corruptBudget = 100_000

// corruptBlob parks corruptSrc mid-run and returns its snapshot.
func corruptBlob(t testing.TB) []byte {
	t.Helper()
	opts := core.Defaults()
	opts.Getters = true
	c, err := core.Compile(corruptSrc, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	run, _ := mustStart(t, c, core.BackendTree)
	if !pump(run, 500) {
		t.Fatal("program finished before parking")
	}
	blob, err := run.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return blob
}

// tryRestore feeds a (possibly corrupt) blob through both untrusted entry
// points. A panic fails the test via the harness; errors are expected.
func tryRestore(t testing.TB, blob []byte) {
	t.Helper()
	core.SnapshotMeta(blob)
	run, err := core.Restore(core.RunConfig{
		Backend:  core.BackendTree,
		Clock:    eventloop.NewVirtualClock(),
		Out:      &bytes.Buffer{},
		MaxSteps: corruptBudget,
	}, blob)
	if err != nil || run == nil {
		return
	}
	// Mutations that survive decoding must still yield a guest that runs to
	// completion (or a guest error) without crashing the realm.
	run.Resume()
	run.Wait()
	run.Loop.Run()
}

// TestRestoreCorruptBlobMutations overwrites bytes of a real snapshot at
// strided positions and truncates it at every length.
func TestRestoreCorruptBlobMutations(t *testing.T) {
	blob := corruptBlob(t)
	stride := len(blob)/512 + 1
	for i := 0; i < len(blob); i += stride {
		for _, b := range []byte{blob[i] ^ 0xFF, 0xFF, blob[i] ^ 0x01} {
			m := append([]byte{}, blob...)
			m[i] = b
			tryRestore(t, m)
		}
	}
	for n := 0; n < len(blob); n += 7 {
		tryRestore(t, blob[:n])
	}
}

// TestRestoreCorruptBlobSplicedOverflow splices uvarint encodings of values
// near 2^64 into strided positions, the pattern that wraps an unchecked
// `off+n` bounds comparison or an `int(uvarint)` ref conversion negative.
func TestRestoreCorruptBlobSplicedOverflow(t *testing.T) {
	blob := corruptBlob(t)
	payloads := [][]byte{
		binary.AppendUvarint(nil, math.MaxUint64),
		binary.AppendUvarint(nil, math.MaxUint64-2),
		binary.AppendUvarint(nil, uint64(math.MaxInt64)+1),
	}
	stride := len(blob)/512 + 1
	for i := 0; i <= len(blob); i += stride {
		for _, p := range payloads {
			m := append([]byte{}, blob[:i]...)
			m = append(m, p...)
			m = append(m, blob[min(i, len(blob)):]...)
			tryRestore(t, m)
		}
	}
}

// TestRestoreRefusesCyclicScopeChain: an environment's parent is a table
// ref (0 = the global scope), so one flipped byte can point a scope chain
// back into itself. Such a blob decodes into a guest whose first variable
// lookup through the loop never returns — no statement completes, so no
// step budget fires — and must be refused at decode time instead.
func TestRestoreRefusesCyclicScopeChain(t *testing.T) {
	blob := corruptBlob(t)
	refused := 0
	for i, b := range blob {
		if b != 0 {
			continue
		}
		m := append([]byte{}, blob...)
		for ref := byte(1); ref <= 4; ref++ {
			m[i] = ref
			_, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}}, m)
			if err != nil && strings.Contains(err.Error(), "cyclic") {
				refused++
			}
		}
	}
	if refused == 0 {
		t.Fatal("no mutant forged a cyclic scope chain; the corpus no longer reaches the check")
	}
}

// cyclicProtoSrc parks in its loop with two plain objects hanging off Math;
// resumed, it prints a line and then reads a property neither object has,
// which walks the prototype chain to its end.
const cyclicProtoSrc = `
Math.o = { a: 1 };
Math.p = { b: 2 };
var i = 0;
while (i < 1000) { i = i + 1; }
console.log("before");
console.log(Math.o.missing);
`

// cyclicProtoBlobs is cyclicProtoSrc parked, four times, with prototype
// pointers bent into a loop before the snapshot — what a crafted proto ref
// says: o onto itself; o and p onto each other; Object.prototype onto o,
// whose own prototype it is, which the blob carries as a host delta; and
// Math and the Object constructor onto each other, two host deltas whose
// loop no decoded object's chain reaches.
func cyclicProtoBlobs(t testing.TB) (names []string, blobs [][]byte) {
	t.Helper()
	c, err := core.Compile(cyclicProtoSrc, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	type heap struct{ o, p, math, object, objectProto *interp.Object }
	for _, bend := range []struct {
		name string
		f    func(h heap)
	}{
		{"self-loop", func(h heap) { h.o.SetProto(h.o) }},
		{"two-object loop", func(h heap) { h.o.SetProto(h.p); h.p.SetProto(h.o) }},
		{"host prototype loop", func(h heap) {
			if h.o.Proto != h.objectProto {
				t.Fatal("Math.o's prototype is not Object.prototype")
			}
			h.objectProto.SetProto(h.o)
		}},
		{"host-only loop", func(h heap) { h.math.SetProto(h.object); h.object.SetProto(h.math) }},
	} {
		run, _ := mustStart(t, c, core.BackendBytecode)
		if !pump(run, 100) {
			t.Fatal("program finished before parking")
		}
		global := func(name string) *interp.Object {
			v, _ := run.In.Global.Lookup(name)
			return v.Obj()
		}
		h := heap{math: global("Math"), object: global("Object")}
		h.o, h.p = h.math.Own("o").Obj(), h.math.Own("p").Obj()
		h.objectProto = h.object.Own("prototype").Obj()
		bend.f(h)
		blob, err := run.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", bend.name, err)
		}
		names, blobs = append(names, bend.name), append(blobs, blob)
	}
	return names, blobs
}

// TestRestoreRefusesCyclicPrototypeChain: an object's prototype, and a host
// object's re-prototyping delta, are refs into the blob's tables, so a
// crafted one can close a loop. Property lookup walks the chain to null
// without counting statements, so the guest that meets such a loop spins
// past any step budget and any Kill; Restore must refuse the blob. The
// deadline turns a decoder that accepts it into a failure, not a hang.
func TestRestoreRefusesCyclicPrototypeChain(t *testing.T) {
	names, blobs := cyclicProtoBlobs(t)
	for i, blob := range blobs {
		name := names[i]
		done := make(chan error, 1)
		go func() {
			run, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}, MaxSteps: corruptBudget}, blob)
			if err == nil {
				run.Resume()
				run.Wait()
				err = errors.New("the blob was accepted")
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !strings.Contains(err.Error(), "corrupt blob: prototype chain is cyclic") {
				t.Errorf("%s: Restore = %v, want a cyclic prototype chain refused", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the restored guest still runs after 10 s", name)
		}
	}
}

// firstFrame walks a version-3 blob (internal/snapshot, Encode) to its frame
// table and returns the offsets of the first frame's two fixed bytes: its
// kind, and the count of by-name bindings that follows its slots.
func firstFrame(t testing.TB, blob []byte) (kind, bindings int) {
	t.Helper()
	off := 5 // magic, version
	uv := func() int {
		n, k := binary.Uvarint(blob[off:])
		if k <= 0 {
			t.Fatalf("no uvarint at offset %d", off)
		}
		off += k
		return int(n)
	}
	off += uv() // header
	uv()        // statements
	uv()        // metered bytes
	off += 8    // Math.random state
	off += uv() // output
	off += 1    // flags
	off += 8    // wall clock
	uv()        // timer sequence
	uv()        // registry length
	off += 8    // registry sum
	uv()        // code table: functions
	uv()        // code table: scopes
	off += 8    // code table sum
	if uv() == 0 {
		t.Fatal("the blob has no frames")
	}
	kind = off
	off++
	uv() // parent
	uv() // layout
	for n := uv(); n > 0; n-- {
		tag := blob[off]
		off++
		switch tag {
		case 4: // number
			off += 8
		case 5: // string
			off += uv()
		case 6, 7: // object, host object
			uv()
		}
	}
	return kind, off
}

// TestRestoreRefusesDynamicFrames: a realm's frames are the global one and
// slot frames, so the wire has one frame kind and no by-name bindings on it.
// The format has a byte for each; a blob that sets either asks the decoder
// for a frame no engine runs on, and is refused — directly, and by a
// supervisor's worker, which is left with nothing resident.
func TestRestoreRefusesDynamicFrames(t *testing.T) {
	blob := corruptBlob(t)
	for name, m := range dynamicFrameBlobs(t, blob) {
		_, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}}, m)
		if err == nil || !strings.Contains(err.Error(), "corrupt blob: "+name) {
			t.Errorf("%s: Restore = %v, want a corrupt blob", name, err)
		}
		s := supervisor.New(supervisor.Options{Workers: 1, TraceCapacity: -1})
		g, err := s.Restore(m, nil) // the header is sound: the worker meets the frame
		if err != nil {
			t.Fatalf("%s: admission: %v", name, err)
		}
		if res := g.Wait(); res.Err == nil || !strings.Contains(res.Err.Error(), "corrupt blob: "+name) {
			t.Errorf("%s: the guest ended with %v, want a corrupt blob", name, res.Err)
		}
		if m := s.Metrics(); m.ResidentGuests != 0 {
			t.Errorf("%s: %d guests resident after a refused restore", name, m.ResidentGuests)
		}
		s.Close()
	}
}

// dynamicFrameBlobs is blob twice, by the decoder's complaint: with its first
// frame re-tagged as the map frame kind 0 was, and with that frame claiming
// one by-name binding.
func dynamicFrameBlobs(t testing.TB, blob []byte) map[string][]byte {
	t.Helper()
	kind, bindings := firstFrame(t, blob)
	if blob[kind] != 1 || blob[bindings] != 0 {
		t.Fatalf("first frame: kind %d, %d by-name bindings; want 1 and 0", blob[kind], blob[bindings])
	}
	retagged, bound := append([]byte{}, blob...), append([]byte{}, blob...)
	retagged[kind], bound[bindings] = 0, 1
	return map[string][]byte{"unknown frame kind 0": retagged, "frame carries 1 by-name bindings": bound}
}

// unknownKeysBlob is blob with its header carrying option keys this build
// does not know, as a blob written before PR 22 does: RestoreSegment and
// SampleMs were compile options then, and a daemon of that build wrote both
// into every header. The values are hostile on purpose — a one-frame segment
// re-entered nothing, forever, when the header could still set it.
func unknownKeysBlob(t testing.TB, blob []byte) []byte {
	t.Helper()
	meta, err := snapshot.ReadMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	const was, want = `"opts":{`, `"opts":{"RestoreSegment":1,"SampleMs":-1e308,"NoSuchOption":[{}],`
	hdr := bytes.Replace(meta.HostMeta, []byte(was), []byte(want), 1)
	at := bytes.Index(blob, meta.HostMeta) // the header is the blob's first section, behind its length
	if at < 0 || len(hdr) == len(meta.HostMeta) {
		t.Fatalf("the blob header does not carry %s", was)
	}
	out := append([]byte{}, blob[:at-len(binary.AppendUvarint(nil, uint64(len(meta.HostMeta))))]...)
	out = append(binary.AppendUvarint(out, uint64(len(hdr))), hdr...)
	return append(out, blob[at+len(meta.HostMeta):]...)
}

// TestRestoreHostileSegmentHeader: the options ride in the header of a blob
// nobody vouches for. A header carrying keys this build does not know
// restores as the pristine blob does: the guest resumes and finishes.
func TestRestoreHostileSegmentHeader(t *testing.T) {
	c, err := core.Compile(divrecSrc(60), core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	parked, _ := mustStart(t, c, core.BackendBytecode)
	pump(parked, 3000)
	pristine, err := parked.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for i, blob := range [][]byte{pristine, unknownKeysBlob(t, pristine)} {
		buf := &bytes.Buffer{}
		run, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: buf, MaxSteps: stepBudget}, blob)
		if err != nil {
			t.Fatal(err)
		}
		pump(run, 0)
		outs[i] = transcript(run, buf)
	}
	if outs[1] != outs[0] || !strings.HasPrefix(outs[0], "divrec") || strings.Contains(outs[0], "!") {
		t.Fatalf("unknown header keys: %q, pristine %q", outs[1], outs[0])
	}
}

// FuzzRestoreBlob is the decoder's fuzz target: whatever bytes reach the two
// untrusted entry points (SnapshotMeta, Restore) must come back as an error
// or as a guest that still terminates inside its step budget — never a
// panic, never a spin. Seeded with a real snapshot, truncations of it, and
// the uvarint overflow splices the tests above stride through it, and the
// blobs whose prototype chains loop.
func FuzzRestoreBlob(f *testing.F) {
	blob := corruptBlob(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:16])
	f.Add(unknownKeysBlob(f, blob))
	for _, m := range dynamicFrameBlobs(f, blob) {
		f.Add(m)
	}
	_, cyclic := cyclicProtoBlobs(f)
	for _, m := range cyclic {
		f.Add(m)
	}
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for _, at := range []int{8, len(blob) / 3, len(blob) - 8} {
		f.Add(append(append(append([]byte{}, blob[:at]...), huge...), blob[at:]...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<16 {
			t.Skip("oversized input")
		}
		tryRestore(t, b)
	})
}
