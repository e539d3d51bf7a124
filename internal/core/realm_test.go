package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/langs"
	"repro/internal/snapshot"
)

// What a realm costs to build, and that the registry it is built with is
// what a walk of its host graph finds.

// The ceilings on NewRun of a one-statement program — interp.New's builtin
// graph, the runtime's natives, the host registry, the prelude — are its
// measured 257 allocations in 29 048 bytes (260 in 30 184 under the race
// detector) plus 1.5 %. While the runtime defined its names as globals, which
// grew the global frame by a dozen cells and the global cache table by their
// references, it cost 269 in 29 608. A realm that rebuilds its builtin shapes instead
// of following the process's frozen ones fails here: that cost 448
// allocations in 47 744 bytes (447 in 50 992 under the race detector). The
// realm cost 971 allocations and 143 328 bytes while shapes copied their
// parent's index and every realm walked its host graph for its registry,
// and 451 in 56 480 with 160-byte object headers and 48-byte property
// slots.
const (
	newRunAllocs = 264
	newRunBytes  = 30_650
)

func TestAllocGateNewRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := core.Compile(`var x = 1;`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	bytes, allocs := minAlloc(t, func() error {
		_, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock()})
		return err
	})
	t.Logf("NewRun: %d allocations, %d bytes", allocs, bytes)
	if bytes > newRunBytes || allocs > newRunAllocs {
		t.Errorf("NewRun allocated %d objects in %d bytes, ceiling %d in %d", allocs, bytes, newRunAllocs, newRunBytes)
	}
}

// BenchmarkNewRun is what TestAllocGateNewRun gates, timed.
func BenchmarkNewRun(b *testing.B) {
	c, err := core.Compile(`var x = 1;`, core.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for range b.N {
		if _, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock()}); err != nil {
			b.Fatal(err)
		}
	}
}

// What a hop costs: clojure.lazy_seq parked at its first 20 000-statement
// pause, compiled under every option its profile declares (the source ends
// in `eval;`, which keeps them: a program that names eval is not narrowed),
// so the state it measures is the one these figures were taken from.
// Snapshot's ceilings are its measured 4 allocations in 43 648 bytes,
// of a blob of 33 840 bytes; RestoreWith's are its 3 500 in 279 840 (3 503
// in 302 496 under the race detector), of a blob of 33 840; each plus 2 %
// (and one allocation). Before the encoder pooled its node tables, a
// snapshot cost 59 allocations in 149 584 bytes. Before the restored realm followed the process's frozen host shapes,
// a restore cost 3 679 in 296 560 (3 676 in 320 608 under the race
// detector). Before the encoder wrote into a pooled buffer and the decoder
// built the realm straight from the blob, a hop cost 88 allocations in
// 267 984 bytes to snapshot, into a 40 960-byte buffer, and 5 315 in 952 944
// to restore; before objects shrank to a 112-byte header and 32-byte slots
// sized to each record's key count, a restore cost 3 725 in 415 552; before
// the encoder numbered each node at its first reference, in one walk, a
// snapshot cost 77 in 158 528; before a frame became one array of the locals
// live across a call site, the blob was 34 298 bytes and a restore cost
// 3 718 in 313 344.
const (
	hopSnapshotAllocs = 5
	hopSnapshotBytes  = 44_600
	hopRestoreAllocs  = 3_574
	hopRestoreBytes   = 308_600
)

func TestAllocGateHop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := langs.ByName("clojure")
	c, err := core.Compile(benchmarkSource(t, p, "lazy_seq")+"\neval;\n", p.Opts(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	run, _ := mustStart(t, c, core.BackendBytecode)
	if !pump(run, 20000) {
		t.Fatal("clojure.lazy_seq finished before its first pause")
	}
	var blob []byte
	snapBytes, snapAllocs := minAlloc(t, func() (err error) {
		blob, err = run.Snapshot()
		return err
	})
	if cap(blob) != len(blob) {
		t.Errorf("the blob holds %d bytes in a buffer of %d", len(blob), cap(blob))
	}
	restoreBytes, restoreAllocs := minAlloc(t, func() error {
		_, err := core.RestoreWith(config(core.BackendBytecode, &bytes.Buffer{}, stepBudget), blob, core.RestoreOptions{ReplayOutput: true})
		return err
	})
	t.Logf("a %d-byte blob: Snapshot %d allocations, %d bytes; RestoreWith %d allocations, %d bytes",
		len(blob), snapAllocs, snapBytes, restoreAllocs, restoreBytes)
	if snapBytes > hopSnapshotBytes || snapAllocs > hopSnapshotAllocs {
		t.Errorf("Snapshot allocated %d objects in %d bytes, ceiling %d in %d", snapAllocs, snapBytes, hopSnapshotAllocs, hopSnapshotBytes)
	}
	if restoreBytes > hopRestoreBytes || restoreAllocs > hopRestoreAllocs {
		t.Errorf("RestoreWith allocated %d objects in %d bytes, ceiling %d in %d", restoreAllocs, restoreBytes, hopRestoreAllocs, hopRestoreBytes)
	}
}

// encodeSlack is what a warm Snapshot may allocate beyond its blob: the
// allocator rounds a blob past 32 KB up to whole 8 KB pages, and the JSON
// header is a copy of the program's source (2.4 KB for clojure.lazy_seq).
const encodeSlack = 12 << 10

// TestAllocGateEncode: the encoder's node tables (the objID and envID maps
// and the node lists) are pooled with its section buffers and cleared after
// use, so a second Snapshot of the same paused run allocates its blob and
// little else. An encoder that grows its ID maps per call allocates about
// three times the blob here.
func TestAllocGateEncode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool cache
	p := langs.ByName("clojure")
	c, err := core.Compile(benchmarkSource(t, p, "lazy_seq"), p.Opts(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	run, _ := mustStart(t, c, core.BackendBytecode)
	if !pump(run, 20000) {
		t.Fatal("clojure.lazy_seq finished before its first pause")
	}
	first, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var again []byte
	bytes, allocs := minAlloc(t, func() (err error) {
		again, err = run.Snapshot()
		return err
	})
	t.Logf("a %d-byte blob: a second Snapshot took %d allocations, %d bytes", len(again), allocs, bytes)
	if len(again) != len(first) {
		t.Fatalf("the same paused run encoded to %d bytes, then %d", len(first), len(again))
	}
	if bytes > uint64(len(again))+encodeSlack {
		t.Errorf("a second Snapshot allocated %d bytes for a %d-byte blob, ceiling the blob plus %d", bytes, len(again), encodeSlack)
	}
}

func benchmarkSource(t *testing.T, p *langs.Profile, name string) string {
	t.Helper()
	for _, b := range p.Benchmarks {
		if b.Name == name {
			return b.Source
		}
	}
	t.Fatalf("langs has no %s.%s", p.Name, name)
	return ""
}

// minAlloc runs f eight times and returns the fewest bytes and allocations
// one call took: the first call warms caches (a hop's compile memo, the
// encoder's buffer pool), and a collection that lands mid-call only adds.
func minAlloc(t *testing.T, f func() error) (bytes, allocs uint64) {
	t.Helper()
	bytes, allocs = math.MaxUint64, math.MaxUint64
	for try := 0; try < 8; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	return bytes, allocs
}

// TestDecodeAmplification: what Decode allocates per blob byte, for the two
// things a guest heap is mostly made of. A decoded value costs what it is in
// the realm — a 24-byte interp.Value, or an interp.Object and the reference
// to it — and nothing on the side: no parse tree of the blob survives into,
// or is built for, the realm. So the factor is bounded by the realm's own
// struct sizes over the wire's few bytes per value, not by the decoder.
func TestDecodeAmplification(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name  string
		n     int
		push  string
		bound float64
	}{
		{"100 000 undefined", 100000, "undefined", 32},
		{"20 000 {}", 20000, "{}", 16},
	} {
		src := fmt.Sprintf("var a = [];\nfor (var i = 0; i < %d; i++) { a.push(%s); }\nMath.done = true;\nwhile (true) {}\n", tc.n, tc.push)
		c, err := core.Compile(src, core.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		run, _ := mustStart(t, c, core.BackendBytecode)
		for done := false; !done; {
			if !pump(run, 20000) {
				t.Fatalf("%s: the guest ended", tc.name)
			}
			math, _ := run.In.Global.Lookup("Math")
			done = math.Obj().Own("done") != nil
		}
		blob, err := run.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for try := 0; try < 4; try++ {
			realm, err := c.NewRealm(config(core.BackendBytecode, &bytes.Buffer{}, stepBudget))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = snapshot.Decode(blob, realm.In, realm.RT, c.CodeTable(), realm.Registry())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		factor := float64(least) / float64(len(blob))
		t.Logf("%s: Decode allocates %d bytes for a %d-byte blob, %.1f per byte", tc.name, least, len(blob), factor)
		if factor > tc.bound {
			t.Errorf("%s: Decode allocates %.1f bytes per blob byte, bound %.0f", tc.name, factor, tc.bound)
		}
	}
}

// TestRealmRegistryIsTheWalk: under every language profile's options and
// every continuation strategy, on both engines, the registry a realm is
// built with — filled from the pristine twin's edges — holds what a fresh
// walk of that realm registers, at the same ordinals, under the same Sum.
func TestRealmRegistryIsTheWalk(t *testing.T) {
	for _, p := range langs.All() {
		for _, cont := range []string{"checked", "exceptional", "eager"} {
			opts := p.Opts(core.Defaults())
			opts.Cont, opts.DeepStacks = cont, cont != "checked"
			c, err := core.Compile(`var x = 1;`, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range bothEngines {
				a, err := c.NewRealm(config(engine, &bytes.Buffer{}, stepBudget))
				if err != nil {
					t.Fatal(err)
				}
				got, want := a.Registry(), snapshot.NewRegistry(a.In)
				if got.Len() != want.Len() || got.Sum() != want.Sum() {
					t.Fatalf("%s/%s/%s: registry of %d objects, Sum %#x; the walk finds %d, Sum %#x",
						p.Name, cont, engine, got.Len(), got.Sum(), want.Len(), want.Sum())
				}
				for i := range want.Len() {
					if got.Object(i) != want.Object(i) {
						t.Fatalf("%s/%s/%s: ordinal %d is a different object", p.Name, cont, engine, i)
					}
				}
			}
		}
	}
}

// TestRestoreReencodesIdentically parks every language program at each of
// its first 20 000-statement pauses, on both engines, restores the blob and
// snapshots the restored run before it moves: the two blobs must agree byte
// for byte outside the wall-clock stamp. Restore re-links host objects by
// ordinal and replays every object's properties into the new realm's
// shape trees; a re-link that landed elsewhere or a replay that interned
// another key order changes the bytes.
func TestRestoreReencodesIdentically(t *testing.T) {
	const quantum = 20000
	hops := 3
	if testing.Short() {
		hops = 1
	}
	compared := 0
	for _, p := range langs.All() {
		opts := p.Opts(core.Defaults())
		for _, b := range p.Benchmarks {
			c, err := core.Compile(b.Source, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, b.Name, err)
			}
			for _, engine := range bothEngines {
				run, _ := mustStart(t, c, engine)
				for hop := 0; hop < hops && pump(run, quantum); hop++ {
					blob, err := run.Snapshot()
					var pin *snapshot.PinError
					if errors.As(err, &pin) {
						break // a guest the codec cannot carry (eval) stays resident
					} else if err != nil {
						t.Fatalf("%s/%s on %s, hop %d: %v", p.Name, b.Name, engine, hop, err)
					}
					next, err := core.RestoreWith(config(engine, &bytes.Buffer{}, stepBudget), blob, core.RestoreOptions{ReplayOutput: true})
					if err != nil {
						t.Fatalf("%s/%s on %s, hop %d: restore: %v", p.Name, b.Name, engine, hop, err)
					}
					again, err := next.Snapshot()
					if err != nil {
						t.Fatalf("%s/%s on %s, hop %d: re-encode: %v", p.Name, b.Name, engine, hop, err)
					}
					if d := blobDiff(t, blob, again); d >= 0 {
						t.Fatalf("%s/%s on %s, hop %d: the restored run re-encodes differently at byte %d of %d (%d)",
							p.Name, b.Name, engine, hop, d, len(blob), len(again))
					}
					compared++
					next.SetOnQuantum(func() { next.Pause(nil) })
					run = next
				}
			}
		}
	}
	t.Logf("%d parked states re-encoded identically", compared)
	if compared < 24 {
		t.Fatalf("only %d parked states compared", compared)
	}
}

// blobDiff returns the first byte at which two blobs differ outside each
// one's WallUnixMs field, or -1.
func blobDiff(t *testing.T, a, b []byte) int {
	t.Helper()
	at := func(blob []byte) int {
		info, err := core.SnapshotMeta(blob)
		if err != nil {
			t.Fatal(err)
		}
		stamp := binary.BigEndian.AppendUint64(nil, math.Float64bits(info.WallUnixMs))
		return bytes.Index(blob, stamp)
	}
	i, j := at(a), at(b)
	if i != j || i < 0 || len(a) != len(b) {
		return min(len(a), len(b), max(i, 0))
	}
	a = append(append(a[:i:i], make([]byte, 8)...), a[i+8:]...)
	b = append(append(b[:i:i], make([]byte, 8)...), b[i+8:]...)
	for k := range a {
		if a[k] != b[k] {
			return k
		}
	}
	return -1
}
