package supervisor

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// Residency limiting: with Options.MaxResident set, the supervisor keeps at
// most that many live realms in memory. When a turn ends over the limit,
// idle guests — externally paused or asleep on a timer, least-recently-run
// first — are serialized through the snapshot codec and their realms
// dropped; the blob lives in memory or, with Options.ParkDir, on disk.
// Touching a parked guest (its timer fires, Resume, a worker picks it up)
// restores the realm transparently before the turn runs. A guest the codec
// cannot serialize (a closure over eval code, a task posted without a
// descriptor, an opaque host payload — see snapshot.PinError; bound
// functions and Date instances left this list with wire v2) simply stays
// resident: parking is an optimization, not a correctness boundary. Refused
// parks are counted per pin kind (Metrics.ParkPinsByReason) so the residual
// pin set stays observable.
//
// The same machinery gives guests process mobility: SnapshotGuest hands a
// quiescent guest's blob to the caller (stopifyd's snapshot endpoint), and
// Supervisor.Restore admits a blob produced by any process as a new guest.

// Residency errors.
var (
	// ErrUnknownGuest reports an ID with no admitted guest.
	ErrUnknownGuest = errors.New("supervisor: unknown guest")
	// ErrNotQuiescent reports a snapshot request against a guest that is
	// running or queued to run; pause it first and retry once it parks.
	ErrNotQuiescent = errors.New("supervisor: guest is not quiescent (pause it first)")
	// ErrFinished reports a snapshot request against a finished guest.
	ErrFinished = errors.New("supervisor: guest already finished")
)

// maybeParkSome enforces MaxResident after a scheduling turn: while the
// resident-realm count exceeds the limit, park idle guests LRU-first. Runs
// on a worker with no locks held.
func (s *Supervisor) maybeParkSome() {
	max := s.opts.MaxResident
	if max <= 0 {
		return
	}
	s.mu.Lock()
	over := len(s.residents) - max
	if over <= 0 {
		s.mu.Unlock()
		return
	}
	// Scan only guests holding a live realm: the full registry keeps every
	// finished guest for result/output lookup, so iterating it here would
	// cost O(total admissions) per turn boundary under sustained load.
	cands := make([]*Guest, 0, len(s.residents))
	for _, g := range s.residents {
		cands = append(cands, g)
	}
	s.mu.Unlock()

	type scored struct {
		g    *Guest
		last time.Time
	}
	idle := make([]scored, 0, len(cands))
	for _, g := range cands {
		g.mu.Lock()
		if g.run != nil && !g.parked && (g.state == StatePaused || g.state == StateSleeping) {
			idle = append(idle, scored{g, g.lastTurn})
		}
		g.mu.Unlock()
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].last.Before(idle[j].last) })

	for _, c := range idle {
		s.mu.Lock()
		over = len(s.residents) - max
		s.mu.Unlock()
		if over <= 0 {
			return
		}
		s.tryPark(c.g)
	}
}

// tryPark serializes one idle guest and drops its realm. Reports whether the
// guest was parked; a pinned or non-idle guest is left untouched. It runs on
// the worker whose turn just ended, for some other guest: a Snapshot that
// panics is the fault of the guest being parked, so that guest is
// quarantined here and the worker's own guest is left alone.
func (s *Supervisor) tryPark(g *Guest) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Re-validate under the lock: the guest may have been claimed, killed,
	// or finished since the candidate scan.
	if g.run == nil || g.parked || (g.state != StatePaused && g.state != StateSleeping) {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			s.faultLocked(g, r)
		}
	}()
	blob, err := g.run.Snapshot()
	if err != nil {
		// Pinned (or transiently non-quiescent): stays resident.
		kind := "other"
		var perr *snapshot.PinError
		if errors.As(err, &perr) && perr.Kind != "" {
			kind = perr.Kind
		}
		s.record(-1, TraceEvent{Type: TracePin, Guest: g.ID, Cause: kind}, 0)
		return false
	}
	g.parkBlob = blob
	g.parkPath = ""
	if s.opts.ParkDir != "" {
		path := filepath.Join(s.opts.ParkDir, fmt.Sprintf("guest-%d.snap", g.ID))
		if werr := os.WriteFile(path, blob, 0o600); werr == nil {
			g.parkPath = path
			g.parkBlob = nil
		}
		// On write failure the blob silently stays in memory: parking
		// degrades, it does not kill tenants.
	}
	g.parked = true
	g.parkedAt = time.Now()
	g.run = nil
	s.mu.Lock()
	delete(s.residents, g.ID)
	s.parkedN++
	// Counter and gauges move atomically under s.mu (metrics.mu nests
	// inside), so a Metrics scrape never sees the park counted while the
	// guest still looks resident.
	s.record(-1, TraceEvent{Type: TracePark, Guest: g.ID, Bytes: len(blob)}, 0)
	s.mu.Unlock()
	return true
}

// restoreGuest rebuilds a parked guest's realm before a turn (restore on
// touch). Worker goroutine, no locks held.
func (s *Supervisor) restoreGuest(g *Guest, cfg core.RunConfig) (*core.AsyncRun, error) {
	g.mu.Lock()
	blob, path, parkedAt, replay := g.parkBlob, g.parkPath, g.parkedAt, g.replayOut
	g.mu.Unlock()
	if blob == nil && path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("supervisor: reading parked snapshot: %w", err)
		}
		blob = b
	}
	if blob == nil {
		return nil, errors.New("supervisor: parked guest has no snapshot")
	}
	start := time.Now()
	run, err := core.RestoreWith(cfg, blob, core.RestoreOptions{
		ReplayOutput: replay,
		ElapsedMs:    durMs(start.Sub(parkedAt)),
	})
	if err != nil {
		return nil, err
	}
	s.attach(g, run, start, len(blob))
	return run, nil
}

// SnapshotGuest serializes a quiescent guest — paused, asleep on a timer,
// or already parked — without disturbing it. Running or queued guests
// return ErrNotQuiescent: pause the guest and retry once it parks. The
// returned blob is the caller's; the guest keeps executing here unless the
// caller also kills it (the daemon's hand-off endpoint does exactly that).
func (s *Supervisor) SnapshotGuest(id uint64) ([]byte, error) {
	s.mu.Lock()
	g := s.guests[id]
	s.mu.Unlock()
	if g == nil {
		return nil, ErrUnknownGuest
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.state == StateDone:
		return nil, ErrFinished
	case g.parked:
		if g.parkBlob != nil {
			return append([]byte(nil), g.parkBlob...), nil
		}
		return os.ReadFile(g.parkPath)
	case (g.state == StatePaused || g.state == StateSleeping) && g.run != nil:
		return g.run.Snapshot()
	default:
		return nil, ErrNotQuiescent
	}
}

// Restore admits a snapshot blob — from SnapshotGuest here, or from another
// process entirely — as a new guest under pol (DefaultPolicy when nil). The
// blob's carried console output replays into the new guest's output buffer,
// and its cumulative step/memory accounting carries over, so policy budgets
// span the guest's whole life across processes. The guest is queued; a
// worker rebuilds its realm on first touch.
func (s *Supervisor) Restore(blob []byte, pol *Policy) (*Guest, error) {
	return s.admit(pol, snapshotBlob(blob).prepare)
}

type snapshotBlob []byte

// prepare is Restore's expensive stage: it validates the blob's header, so
// a corrupt blob fails the caller synchronously rather than the worker
// later, and parks a private copy on g.
func (blob snapshotBlob) prepare(g *Guest) error {
	if _, err := core.SnapshotMeta(blob); err != nil {
		return err
	}
	g.parked, g.replayOut = true, true
	g.parkBlob = append([]byte(nil), blob...)
	return nil
}
