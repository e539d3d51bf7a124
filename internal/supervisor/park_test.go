package supervisor

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// sleeperSrc builds a guest that computes, parks on a timer (the window in
// which the residency limiter can take its realm), then computes more and
// prints a seed-dependent result — so a park/restore that corrupted state,
// lost output, or revived the wrong guest is visible in the output. The
// sleep is long enough to outlast the fleet's submission phase even under
// the race detector (Submit compiles synchronously, so race-mode admission
// runs at ~100 guests/sec): residency must accumulate past MaxResident
// while guests are still arriving, or the limiter has nothing to do.
func sleeperSrc(seed int) string {
	return fmt.Sprintf(`
var s = %d;
for (var i = 0; i < 300; i++) { s = (s + i * 7) %% 99991; }
console.log("pre%d", s);
setTimeout(function () {
  for (var i = 0; i < 200; i++) { s = (s + i * 3) %% 99991; }
  console.log("post%d", s);
}, 1500);
`, seed, seed, seed)
}

func sleeperWant(seed int) string {
	s := seed
	for i := 0; i < 300; i++ {
		s = (s + i*7) % 99991
	}
	pre := s
	for i := 0; i < 200; i++ {
		s = (s + i*3) % 99991
	}
	return fmt.Sprintf("pre%d %d\npost%d %d\n", seed, pre, seed, s)
}

// TestParkRestoreFleet is the residency acceptance demo: a fleet far larger
// than MaxResident, every guest sleeping mid-program, completes with
// byte-exact outputs while the limiter cycles realms through disk.
func TestParkRestoreFleet(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 120
	}
	s := New(Options{
		Workers:      4,
		MaxPending:   n + 10,
		QuantumSteps: 1000,
		MaxResident:  100,
		ParkDir:      t.TempDir(),
	})
	defer s.Close()

	guests := make([]*Guest, 0, n)
	for i := 0; i < n; i++ {
		g, err := s.Submit(SubmitOptions{Source: sleeperSrc(i)})
		if err != nil {
			t.Fatal(err)
		}
		guests = append(guests, g)
	}
	for i, g := range guests {
		res := g.Wait()
		if res.Err != nil {
			t.Fatalf("guest %d failed: %v", i, res.Err)
		}
		if want := sleeperWant(i); res.Output != want {
			t.Fatalf("guest %d output %q, want %q", i, res.Output, want)
		}
	}

	m := s.Metrics()
	if m.Parks == 0 || m.Restores == 0 {
		t.Fatalf("limiter never cycled: parks=%d restores=%d pins=%d (MaxResident=%d, n=%d)",
			m.Parks, m.Restores, m.ParkPins, 100, n)
	}
	if m.SnapshotBytesTotal == 0 {
		t.Error("snapshot_bytes_total not accounted")
	}
	if m.ResidentGuests != 0 || m.ParkedGuests != 0 {
		t.Errorf("gauges leak after drain: resident=%d parked=%d", m.ResidentGuests, m.ParkedGuests)
	}
	t.Logf("n=%d parks=%d restores=%d bytes=%d restoreLat P50=%.2fms P99=%.2fms",
		n, m.Parks, m.Restores, m.SnapshotBytesTotal,
		m.RestoreLatency.P50, m.RestoreLatency.P99)
}

// waitState polls until g reaches want or the deadline passes.
func waitState(t *testing.T, g *Guest, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("guest never reached %v (state %v)", want, g.State())
}

// parkNow forces a guest through the limiter path directly (unit-level; the
// fleet test exercises the scheduler-driven path).
func parkNow(t *testing.T, s *Supervisor, g *Guest) {
	t.Helper()
	if !s.tryPark(g) {
		t.Fatalf("tryPark refused (state %v)", g.State())
	}
	if !g.Inspect().Parked {
		t.Fatal("guest not marked parked")
	}
}

// outputOf returns what g has printed so far.
func outputOf(g *Guest) string {
	b, _ := g.OutputSince(0)
	return string(b)
}

// pausedGuest submits src and pauses it mid-flight — after its first output
// line, so the guest demonstrably started executing before the park.
func pausedGuest(t *testing.T, s *Supervisor, src string) *Guest {
	t.Helper()
	g, err := s.Submit(SubmitOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for outputOf(g) == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if outputOf(g) == "" {
		t.Fatal("guest produced no output before the pause")
	}
	g.Pause()
	waitState(t, g, StatePaused)
	return g
}

const longLoopSrc = `
console.log("phase1");
var s = 0;
for (var i = 0; i < 2000000; i++) { s = (s + i) % 1048573; }
console.log("phase2", s);
`

// TestParkedGuestResumesFromDisk pauses a guest, parks it to disk, resumes,
// and expects the full computation to finish from the spilled snapshot.
func TestParkedGuestResumesFromDisk(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, QuantumSteps: 2000, ParkDir: dir})
	defer s.Close()
	g := pausedGuest(t, s, `
console.log("a");
var s = 0;
for (var i = 0; i < 300000; i++) { s = (s + i) % 7919; }
console.log("b", s);
`)
	parkNow(t, s, g)
	files, _ := filepath.Glob(filepath.Join(dir, "guest-*.snap"))
	if len(files) != 1 {
		t.Fatalf("expected one spill file, found %v", files)
	}
	g.Resume()
	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("restored guest failed: %v", res.Err)
	}
	want := "a\nb 4236\n"
	s2 := 0
	for i := 0; i < 300000; i++ {
		s2 = (s2 + i) % 7919
	}
	want = fmt.Sprintf("a\nb %d\n", s2)
	if res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
	if files, _ = filepath.Glob(filepath.Join(dir, "guest-*.snap")); len(files) != 0 {
		t.Fatalf("spill file not cleaned up after restore: %v", files)
	}
}

// TestParkedGuestOutlivesItsMemoEntry parks a guest, pushes its compiled
// program out of the process-wide compile memo, and resumes it: the restore
// misses, compiles the blob's source again, and the guest finishes with the
// output it would have had. The memo is a cache of the recompile a blob
// always permits, never the only copy of anything.
func TestParkedGuestOutlivesItsMemoEntry(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 2000})
	defer s.Close()
	g := pausedGuest(t, s, longLoopSrc)
	parkNow(t, s, g)

	before := s.Metrics()
	opts := core.Defaults()
	opts.YieldIntervalMs = 0 // what Submit compiles under
	for i := 0; before.Compile.MemoEvictions+300 > s.Metrics().Compile.MemoEvictions; i++ {
		if i > 1000 {
			t.Fatal("a thousand fresh sources evicted fewer than 300 entries")
		}
		if _, err := core.CompileCached(fmt.Sprintf(`console.log("filler", %d);`, i), opts); err != nil {
			t.Fatal(err)
		}
	}
	flooded := s.Metrics()

	g.Resume()
	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("restored guest failed: %v", res.Err)
	}
	sum := 0
	for i := 0; i < 2000000; i++ {
		sum = (sum + i) % 1048573
	}
	if want := fmt.Sprintf("phase1\nphase2 %d\n", sum); res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
	after := s.Metrics()
	if after.Restores != before.Restores+1 {
		t.Fatalf("restores %d→%d, want one", before.Restores, after.Restores)
	}
	if after.Compile.MemoMisses != flooded.Compile.MemoMisses+1 || after.Compile.MemoHits != flooded.Compile.MemoHits {
		t.Errorf("the restore's compile: misses %d→%d, hits %d→%d; want one miss (its entry was evicted) and no hit",
			flooded.Compile.MemoMisses, after.Compile.MemoMisses, flooded.Compile.MemoHits, after.Compile.MemoHits)
	}
}

// TestParkedGuestKilledCleansUp kills a parked guest and expects the spill
// file gone and the gauges balanced.
func TestParkedGuestKilledCleansUp(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, QuantumSteps: 2000, ParkDir: dir})
	defer s.Close()
	g := pausedGuest(t, s, longLoopSrc)
	parkNow(t, s, g)
	g.Kill(nil)
	res := g.Wait()
	if res.Err == nil {
		t.Fatal("killed guest reported success")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "guest-*.snap")); len(files) != 0 {
		t.Fatalf("spill file survived the kill: %v", files)
	}
	m := s.Metrics()
	if m.ResidentGuests != 0 || m.ParkedGuests != 0 {
		t.Fatalf("gauges leak: resident=%d parked=%d", m.ResidentGuests, m.ParkedGuests)
	}
}

// TestSnapshotHandoffAcrossSupervisors moves a half-finished guest between
// two supervisors in the same process via SnapshotGuest → Restore — the
// in-process twin of the cross-daemon endpoint hand-off.
func TestSnapshotHandoffAcrossSupervisors(t *testing.T) {
	a := New(Options{Workers: 1, QuantumSteps: 2000})
	defer a.Close()
	b := New(Options{Workers: 1, QuantumSteps: 2000})
	defer b.Close()

	g := pausedGuest(t, a, longLoopSrc)
	if got := outputOf(g); got != "phase1\n" {
		t.Fatalf("pre-handoff output %q", got)
	}
	blob, err := a.SnapshotGuest(g.ID)
	if err != nil {
		t.Fatalf("SnapshotGuest: %v", err)
	}
	g.Kill(nil) // source side is done with it
	g.Wait()

	g2, err := b.Restore(blob, nil)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	res := g2.Wait()
	if res.Err != nil {
		t.Fatalf("restored guest failed: %v", res.Err)
	}
	s := 0
	for i := 0; i < 2000000; i++ {
		s = (s + i) % 1048573
	}
	want := fmt.Sprintf("phase1\nphase2 %d\n", s)
	if res.Output != want {
		t.Fatalf("handed-off output %q, want %q", res.Output, want)
	}
	if res.Steps == 0 {
		t.Error("restored guest lost its cumulative step accounting")
	}
	if m := b.Metrics(); m.RestoreAdmits != 1 {
		t.Errorf("restore_admits=%d, want 1", m.RestoreAdmits)
	}
}

// TestSnapshotGuestNotQuiescent: a running or queued guest refuses to
// serialize; the caller must pause it first.
func TestSnapshotGuestNotQuiescent(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 1000})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: longLoopSrc})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var snapErr error
	for time.Now().Before(deadline) {
		if st := g.State(); st == StateRunning || st == StateQueued {
			_, snapErr = s.SnapshotGuest(g.ID)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(snapErr, ErrNotQuiescent) {
		t.Fatalf("SnapshotGuest on busy guest = %v, want ErrNotQuiescent", snapErr)
	}
	if _, err := s.SnapshotGuest(999999); !errors.Is(err, ErrUnknownGuest) {
		t.Fatalf("unknown ID error = %v", err)
	}
	g.Kill(nil)
	g.Wait()
}

// TestPinShrunkGuestParks: guests holding the state that used to pin them
// resident — a live bound function, a Date instance, a cancelled timer
// handle — now park and restore like any other guest (wire v2's data-backed
// representations).
func TestPinShrunkGuestParks(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 2000, MaxResident: 1})
	defer s.Close()
	g := pausedGuest(t, s, `
var d = new Date();
function mul(a, b) { return a * b; }
var dbl = mul.bind(null, 2);
var dead = setTimeout(function () { console.log("never"); }, 0);
clearTimeout(dead);
console.log("x");
var s = 0;
for (var i = 0; i < 200000; i++) { s = (s + dbl(i)) % 101; }
console.log("y", s, typeof d.getTime());
`)
	if !s.tryPark(g) {
		t.Fatal("pin-shrunk guest did not park")
	}
	if m := s.Metrics(); m.ParkPins != 0 {
		t.Errorf("park_pins=%d (%v), want 0", m.ParkPins, m.ParkPinsByReason)
	}
	g.Resume()
	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("restored guest failed: %v", res.Err)
	}
	s2 := 0
	for i := 0; i < 200000; i++ {
		s2 = (s2 + 2*i) % 101
	}
	if want := fmt.Sprintf("x\ny %d number\n", s2); res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
}

// TestPinnedGuestStaysResident: a guest the codec still cannot serialize (a
// closure over eval-compiled code); the limiter must skip it, count the pin
// under its kind, and let it finish resident rather than kill or corrupt it.
func TestPinnedGuestStaysResident(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 2000, MaxResident: 1})
	defer s.Close()
	copts := core.Defaults()
	copts.YieldIntervalMs = 0
	copts.Eval = true
	g, err := s.Submit(SubmitOptions{Source: `
eval("step = function (s, i) { return (s + i) % 101; };");
console.log("x");
var s = 0;
for (var i = 0; i < 200000; i++) { s = step(s, i); }
console.log("y", s);
`, Compile: copts})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for outputOf(g) == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	g.Pause()
	waitState(t, g, StatePaused)
	if s.tryPark(g) {
		t.Fatal("pinned guest was parked")
	}
	m := s.Metrics()
	if m.ParkPins == 0 {
		t.Error("pin not accounted in park_pins")
	}
	if m.ParkPinsByReason[snapshot.PinEval] == 0 {
		t.Errorf("park_pins_by_reason=%v, want an %q entry", m.ParkPinsByReason, snapshot.PinEval)
	}
	g.Resume()
	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("pinned guest failed: %v", res.Err)
	}
	s2 := 0
	for i := 0; i < 200000; i++ {
		s2 = (s2 + i) % 101
	}
	if want := fmt.Sprintf("x\ny %d\n", s2); res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
}

// TestParkPanicQuarantinesOnlyItsGuest: the limiter parks idle guests on the
// worker whose turn just ended, for some other tenant. A Snapshot that panics
// is the parked guest's engine fault: that guest finishes with
// ErrInternalFault, and the tenant whose turn ended runs on to its own
// result. (The victim's realm is broken by hand — its runtime cleared — so
// its Snapshot panics.)
func TestParkPanicQuarantinesOnlyItsGuest(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 500, MaxResident: 1})
	defer s.Close()
	victim := pausedGuest(t, s, longLoopSrc)
	victim.mu.Lock()
	victim.run.RT = nil
	victim.mu.Unlock()

	g, err := s.Submit(SubmitOptions{Source: `var s = 0;
for (var i = 0; i < 5000; i++) { s = (s + i) % 1000; }
console.log(s);`})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil || res.Output != "500\n" {
		t.Fatalf("innocent guest: err=%v output=%q after %d quanta, want 500", res.Err, res.Output, res.Quanta)
	}
	select {
	case <-victim.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("the guest whose snapshot panicked is still %v", victim.State())
	}
	if err := victim.Result().Err; !errors.Is(err, ErrInternalFault) {
		t.Errorf("victim finished with %v, want ErrInternalFault", err)
	}
	if m := s.Metrics(); m.InternalFaults != 1 || m.ResidentGuests != 0 || m.Completed != 1 {
		t.Errorf("internal_faults=%d resident=%d completed=%d, want 1, 0, 1",
			m.InternalFaults, m.ResidentGuests, m.Completed)
	}
}

// TestRestoreRejectsGarbage: corrupt blobs fail admission synchronously.
func TestRestoreRejectsGarbage(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	if _, err := s.Restore([]byte("not a snapshot"), nil); err == nil {
		t.Fatal("garbage blob admitted")
	}
	if _, err := s.Restore(nil, nil); err == nil {
		t.Fatal("nil blob admitted")
	}
}
