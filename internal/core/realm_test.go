package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// measured 451 allocations in 56 480 bytes (454 in 59 120 under the race
// detector) plus 1.5 %. The realm cost 971 allocations and 143 328 bytes
// while shapes copied their parent's index and every realm walked its host
// graph for its registry.
const (
	newRunAllocs = 461
	newRunBytes  = 60_000
)

func TestAllocGateNewRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := core.Compile(`var x = 1;`, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	bytes, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 8; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock()})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
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
