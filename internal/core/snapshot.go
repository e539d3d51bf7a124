package core

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/snapshot"
)

// Snapshot/restore: a paused AsyncRun serializes to a self-contained blob —
// program source, compile options, the guest's reachable Value graph, the
// saved continuation, pending timers, console output, and cumulative
// step/memory accounting — and Restore rebuilds a runnable AsyncRun from it
// in this process or another one. The codec itself lives in
// internal/snapshot; this file binds it to the compile pipeline (source and
// options ride in the blob header so the restoring side can rebuild an
// identical realm) and to AsyncRun's lifecycle.

// snapshotHeader is the host metadata embedded in every blob: what Restore
// needs before it can build a realm to decode into. Opts are the options the
// program was declared with, from which the recompile derives what it was
// compiled under.
type snapshotHeader struct {
	Source string `json:"source"`
	Opts   Opts   `json:"opts"`
}

// Snapshot serializes the run. The run must be quiescent — paused at a
// yield point, parked between turns, or finished — and the caller must hold
// the owner-goroutine role (no goroutine may be pumping the event loop).
// Snapshot is read-only: on success or failure the run is unharmed and can
// keep executing.
//
// A *snapshot.PinError means the guest's live state reaches outside the
// serializable boundary (a bound-function native, eval-compiled code, a
// blocking host call in flight); the guest stays resident.
func (a *AsyncRun) Snapshot() ([]byte, error) {
	a.mu.Lock()
	finished, result, runErr := a.finished, a.result, a.err
	a.mu.Unlock()
	if finished && runErr != nil {
		return nil, fmt.Errorf("stopify: cannot snapshot a failed run: %w", runErr)
	}
	var outBytes []byte
	if a.out != nil {
		sink, ok := a.out.(interface{ Bytes() []byte })
		if !ok {
			return nil, &snapshot.PinError{
				Kind:   snapshot.PinRegistry,
				Reason: fmt.Sprintf("output sink %T cannot be carried by value (no Bytes method)", a.out),
			}
		}
		outBytes = sink.Bytes()
	}
	hdr, err := json.Marshal(snapshotHeader{Source: a.compiled.SourceText, Opts: a.compiled.declared})
	if err != nil {
		return nil, fmt.Errorf("stopify: encoding snapshot header: %w", err)
	}
	return snapshot.Encode(snapshot.Input{
		In:         a.In,
		RT:         a.RT,
		Code:       a.compiled.codeTable(),
		Reg:        a.reg,
		HostMeta:   hdr,
		Output:     outBytes,
		Result:     result,
		WallUnixMs: float64(time.Now().UnixMilli()),
	})
}

// RestoreOptions tunes Restore.
type RestoreOptions struct {
	// ReplayOutput writes the blob's carried console output to the new
	// run's Out before resuming, so the destination stream reads as a
	// continuation of the source's. A supervisor that persists output
	// separately turns this off.
	ReplayOutput bool
	// ElapsedMs is wall time spent parked, credited against pending timer
	// due-offsets so a restored guest's timers fire on schedule instead of
	// restarting their full delay.
	ElapsedMs float64
}

// Restore rebuilds a runnable AsyncRun from a Snapshot blob with output
// replay on. See RestoreWith.
func Restore(cfg RunConfig, blob []byte) (*AsyncRun, error) {
	return RestoreWith(cfg, blob, RestoreOptions{ReplayOutput: true})
}

// RestoreWith compiles the blob's embedded source under its embedded
// options — through CompileCached, so a process restoring a program it has
// compiled before (its own parked guest, a migrating guest's next hop)
// reuses that compilation — builds a fresh realm under cfg's host knobs
// (engine profile, clock, output, backend, budgets), and decodes the blob
// into it. The compiled program is never executed — every JS-level binding
// comes from the blob, and the prelude's functions, which no guest reaches,
// from the program — so the restored realm's state is the source realm's,
// not a fresh program's.
//
// cfg.Seed is ignored: the blob carries the Math.random generator state.
// Step and memory accounting resume cumulatively from the snapshot's
// figures, so cfg.MaxSteps and cfg.MemBudgetBytes bound the guest's whole
// life, not just the time since this restore; the memory figure is at least
// what decoding the blob charged.
//
// The returned run is in the blob's control state: paused (call Resume),
// mid-flight between turns (pump the loop), or finished draining timers.
func RestoreWith(cfg RunConfig, blob []byte, ro RestoreOptions) (*AsyncRun, error) {
	meta, err := snapshot.ReadMeta(blob)
	if err != nil {
		return nil, err
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(meta.HostMeta, &hdr); err != nil {
		return nil, fmt.Errorf("stopify: snapshot header: %w", err)
	}
	c, err := CompileCached(hdr.Source, hdr.Opts)
	if err != nil {
		return nil, fmt.Errorf("stopify: recompiling snapshot source: %w", err)
	}
	a, err := c.newRealm(cfg)
	if err != nil {
		return nil, err
	}
	a.In.DefineIntrinsics(c.Prog)
	d, err := snapshot.Decode(blob, a.In, a.RT, c.codeTable(), a.reg)
	if err != nil {
		return nil, err
	}
	a.In.SetRandState(d.Meta.Rand)
	// The decode's allocations were charged to the fresh meter; the
	// snapshot's cumulative figures replace them so budgets span
	// park/restore cycles, but never below what decoding the guest's graph
	// charged: a blob that claims less would bring its heap in unmetered.
	a.In.SetAccounting(d.Meta.Steps, max(d.Meta.MemUsed, d.Charged))
	// Continue the setTimeout handle sequence where the source left off, so
	// handles stay unique (and clearTimeout keys stay valid) across the park.
	a.Loop.SetTimerSeq(d.Meta.TimerSeq)
	if ro.ReplayOutput && len(d.Meta.Output) > 0 && a.out != nil {
		if _, err := a.out.Write(d.Meta.Output); err != nil {
			return nil, fmt.Errorf("stopify: replaying snapshot output: %w", err)
		}
	}
	a.RT.AdoptParked(d.State, a.record)
	if d.State.Done {
		// The main chain completed before the snapshot; the restored run is
		// already finished and only drains its remaining timers.
		a.record(d.Result, nil)
	}
	a.RT.Repost(d.Tasks, ro.ElapsedMs)
	return a, nil
}

// SnapshotInfo is the cheap, header-only view of a blob — what an admission
// controller needs before committing to a full decode.
type SnapshotInfo struct {
	// Steps and MemUsed are the guest's cumulative counters at park time.
	Steps   uint64
	MemUsed uint64
	// OutputLen is the carried console output's size in bytes.
	OutputLen int
	// Paused and Done describe the control state: paused at a yield point,
	// or finished with timers still draining. Neither set means the guest
	// was parked mid-flight between event-loop turns.
	Paused bool
	Done   bool
	// WallUnixMs is the snapshot's wall-clock timestamp (Unix milliseconds);
	// a restorer subtracts it from the current time to credit parked time
	// against pending timers.
	WallUnixMs float64
}

// SnapshotMeta parses a blob's header without building a realm or decoding
// the graph.
func SnapshotMeta(blob []byte) (SnapshotInfo, error) {
	m, err := snapshot.ReadMeta(blob)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{
		Steps:      m.Steps,
		MemUsed:    m.MemUsed,
		OutputLen:  len(m.Output),
		Paused:     m.Paused,
		Done:       m.Done,
		WallUnixMs: m.WallUnixMs,
	}, nil
}
