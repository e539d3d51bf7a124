package supervisor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
)

// The flight recorder: a bounded, lock-light ring of structured lifecycle
// events — every admission, claim, turn, preemption, park, restore, pin,
// kill, and finish the supervisor performs. It answers the post-mortem
// question the aggregate metrics cannot: *which* tenant was on *which*
// worker when the worst window's P99 spiked, and what the scheduler did
// about it. The ring is sharded per worker (plus one shard for control-
// plane goroutines) so recording a turn never contends with another
// worker's shard; each shard is a fixed-size overwrite ring, so a
// long-running fleet keeps the most recent events and the recorder's
// memory stays constant. A global atomic sequence number gives the merged
// view a total order without any cross-shard locking.
//
// Two renderings: JSON-lines (one TraceEvent per line, grep-friendly) and
// the Chrome trace-event format (ChromeTrace), which about://tracing and
// Perfetto load directly — turns appear as duration slices on per-worker
// tracks, control events as instants.

// TraceEvent is one recorded lifecycle event. Seq orders events globally;
// TsUs is microseconds since the supervisor started. Worker is the shard
// that recorded the event (-1 = a control-plane goroutine: Submit, an
// external Kill/Pause/Resume, a sleep-timer requeue).
type TraceEvent struct {
	Seq    uint64 `json:"seq"`
	TsUs   int64  `json:"ts_us"`
	DurUs  int64  `json:"dur_us,omitempty"`
	Type   string `json:"type"`
	Guest  uint64 `json:"guest,omitempty"`
	Worker int    `json:"worker"`
	Lane   string `json:"lane,omitempty"`
	Cause  string `json:"cause,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Steps  uint64 `json:"steps,omitempty"`
	WaitUs int64  `json:"wait_us,omitempty"`
}

// Event types recorded by the supervisor.
const (
	// TraceSubmit: a guest was admitted (Submit or Restore; the latter
	// carries the blob size in Bytes).
	TraceSubmit = "submit"
	// TraceReject: admission refused — queue full.
	TraceReject = "reject"
	// TraceSchedule: a worker claimed a queued guest. WaitUs is the queue
	// wait; Lane is the guest's lane.
	TraceSchedule = "schedule"
	// TraceTurn: one scheduling quantum ended. DurUs spans the turn, Cause
	// says how it ended (turnEnd: preempt, pause, sleep, complete, kill,
	// stall), Steps is the guest's cumulative statement count after it.
	TraceTurn = "turn"
	// TracePreempt: the quantum hook preempted the guest (also the Cause of
	// the enclosing turn; the instant makes preemption rates visible on the
	// timeline).
	TracePreempt = "preempt"
	// TracePause / TraceResume: external pause/resume requests.
	TracePause  = "pause"
	TraceResume = "resume"
	// TracePark: an idle guest was serialized out of memory (Bytes = blob).
	TracePark = "park"
	// TraceRestore: a parked guest's realm was rebuilt (Bytes = blob,
	// DurUs = rebuild latency).
	TraceRestore = "restore"
	// TracePin: the codec refused a park; Cause is the pin kind.
	TracePin = "pin"
	// TraceKill: an external or policy kill request arrived; Cause is the
	// reason.
	TraceKill = "kill"
	// TraceFinish: the guest completed; Cause classifies the outcome (ok,
	// deadline, output, mem, shutdown, killed, fault, stalled, error) and
	// Steps is its lifetime statement count.
	TraceFinish = "finish"
)

// traceShard is one worker's (or the control plane's) private ring.
type traceShard struct {
	mu   sync.Mutex
	buf  []TraceEvent
	next int  // write cursor
	full bool // buf has wrapped at least once
}

type traceRecorder struct {
	start  time.Time
	seq    atomic.Uint64
	shards []traceShard
}

// defaultTraceCapacity is the total event budget when Options.TraceCapacity
// is 0: enough for several seconds of sustained-load history (a turn emits
// two events) at a few MB, small enough to keep resident forever.
const defaultTraceCapacity = 16384

func newTraceRecorder(shards, capacity int) *traceRecorder {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	per := capacity / shards
	if per < 64 {
		per = 64
	}
	tr := &traceRecorder{start: time.Now(), shards: make([]traceShard, shards)}
	for i := range tr.shards {
		tr.shards[i].buf = make([]TraceEvent, per)
	}
	return tr
}

// emit stamps and records ev on the given shard. The only lock taken is the
// shard's own, and workers own distinct shards, so tracing adds no
// cross-worker contention; control-plane emitters share the last shard.
func (tr *traceRecorder) emit(shard int, ev TraceEvent) {
	ev.Seq = tr.seq.Add(1)
	ev.TsUs = time.Since(tr.start).Microseconds()
	sh := &tr.shards[shard]
	sh.mu.Lock()
	sh.buf[sh.next] = ev
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next = 0
		sh.full = true
	}
	sh.mu.Unlock()
}

// events merges every shard's retained events, filtered to one guest when
// guest != 0, ordered by the global sequence number.
func (tr *traceRecorder) events(guest uint64) []TraceEvent {
	var out []TraceEvent
	for i := range tr.shards {
		sh := &tr.shards[i]
		sh.mu.Lock()
		n := sh.next
		if sh.full {
			n = len(sh.buf)
		}
		for j := 0; j < n; j++ {
			if guest == 0 || sh.buf[j].Guest == guest {
				out = append(out, sh.buf[j])
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// trace records ev on worker w's shard (w < 0: the control shard). A nil
// recorder (Options.TraceCapacity < 0) makes every call a no-op compare.
func (s *Supervisor) trace(w int, ev TraceEvent) {
	tr := s.tracer
	if tr == nil {
		return
	}
	ev.Worker = w
	shard := len(tr.shards) - 1 // control
	if w >= 0 && w < len(tr.shards)-1 {
		shard = w
	}
	tr.emit(shard, ev)
}

// Trace returns the flight recorder's retained events in global order,
// filtered to one guest when guestID != 0. Empty when tracing is disabled.
func (s *Supervisor) Trace(guestID uint64) []TraceEvent {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.events(guestID)
}

// TraceJSONLines renders events one JSON object per line (the stopifyd
// /trace default).
func TraceJSONLines(evs []TraceEvent) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range evs {
		enc.Encode(ev) // a TraceEvent cannot fail to marshal
	}
	return buf.Bytes()
}

// ChromeTrace renders events in the Chrome trace-event JSON format:
// about://tracing (or Perfetto) shows each worker as a track, turns as
// duration slices named by guest, and everything else as instant markers.
func ChromeTrace(evs []TraceEvent) []byte {
	maxWorker := 0
	for _, ev := range evs {
		if ev.Worker > maxWorker {
			maxWorker = ev.Worker
		}
	}
	ctlTid := maxWorker + 1

	type chromeEvent struct {
		Name  string                 `json:"name"`
		Cat   string                 `json:"cat,omitempty"`
		Ph    string                 `json:"ph"`
		Ts    int64                  `json:"ts"`
		Dur   int64                  `json:"dur,omitempty"`
		Pid   int                    `json:"pid"`
		Tid   int                    `json:"tid"`
		Scope string                 `json:"s,omitempty"`
		Args  map[string]interface{} `json:"args,omitempty"`
	}
	out := make([]chromeEvent, 0, len(evs)+ctlTid+1)
	for tid := 0; tid <= ctlTid; tid++ {
		name := fmt.Sprintf("worker %d", tid)
		if tid == ctlTid {
			name = "control"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]interface{}{"name": name},
		})
	}
	for _, ev := range evs {
		tid := ev.Worker
		if tid < 0 {
			tid = ctlTid
		}
		args := map[string]interface{}{"seq": ev.Seq}
		if ev.Guest != 0 {
			args["guest"] = ev.Guest
		}
		if ev.Lane != "" {
			args["lane"] = ev.Lane
		}
		if ev.Cause != "" {
			args["cause"] = ev.Cause
		}
		if ev.Bytes != 0 {
			args["bytes"] = ev.Bytes
		}
		if ev.Steps != 0 {
			args["steps"] = ev.Steps
		}
		if ev.WaitUs != 0 {
			args["wait_us"] = ev.WaitUs
		}
		if ev.Type == TraceTurn {
			ts := ev.TsUs - ev.DurUs
			if ts < 0 {
				ts = 0
			}
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("guest %d", ev.Guest), Cat: "turn", Ph: "X",
				Ts: ts, Dur: ev.DurUs, Pid: 1, Tid: tid, Args: args,
			})
			continue
		}
		out = append(out, chromeEvent{
			Name: ev.Type, Cat: "lifecycle", Ph: "i", Ts: ev.TsUs,
			Pid: 1, Tid: tid, Scope: "t", Args: args,
		})
	}
	b, _ := json.Marshal(map[string]interface{}{"traceEvents": out})
	return b
}

// outcomeCause classifies a finish error for trace events — the same
// buckets as the per-cause kill counters, plus the guest-earned ones.
func outcomeCause(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrOutputLimit):
		return "output"
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	case errors.Is(err, ErrStalled):
		return "stalled"
	case errors.Is(err, ErrInternalFault):
		return "fault"
	case errors.Is(err, interp.ErrMemLimit):
		return "mem"
	case isSupervisorKill(err):
		return "killed"
	default:
		return "error"
	}
}
