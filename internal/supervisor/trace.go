package supervisor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/interp"
	"repro/internal/rt"
)

// The flight recorder: a bounded ring of structured lifecycle events —
// every admission, claim, turn, preemption, park, restore, pin, kill, and
// finish the supervisor performs. It answers the post-mortem question the
// aggregate metrics cannot: *which* tenant was on *which* worker when the
// worst window's P99 spiked, and what the scheduler did about it. The events
// are the metrics' own inputs: Supervisor.record folds each into the
// counters and appends it here under the one metrics.mu, so the sequence
// number is assigned under that lock, ring order is sequence order, and the
// ring holds exactly the last TraceCapacity events a fleet recorded,
// whichever goroutine recorded them; its memory stays constant however long
// the fleet runs. TsUs is on the windows' clock: a schedule event falls in
// the window its wait sample was filed in.
//
// Two renderings: JSON-lines (one TraceEvent per line, grep-friendly) and
// the Chrome trace-event format (ChromeTrace), which about://tracing and
// Perfetto load directly — turns appear as duration slices on per-worker
// tracks, control events as instants.

// TraceEvent is one recorded lifecycle event. Seq orders events globally;
// TsUs is microseconds since the supervisor started. Worker is the worker
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

// traceRing is the recorder's storage: event seq lives in
// buf[(seq-1) % len(buf)], and a nil buf is tracing off. metrics.mu guards
// it; Supervisor.record is its one writer.
type traceRing struct {
	seq uint64 // events ever recorded, the last one's Seq
	buf []TraceEvent
}

// defaultTraceCapacity is the event budget when Options.TraceCapacity is 0:
// enough for several seconds of sustained-load history (a turn emits two
// events) at a few MB, small enough to keep resident forever.
const defaultTraceCapacity = 16384

// add stamps ev with the next sequence number and its time since the
// supervisor started, overwriting the oldest event once the ring is full.
func (tr *traceRing) add(ev TraceEvent, since time.Duration) {
	if tr.buf == nil {
		return
	}
	tr.seq++
	ev.Seq = tr.seq
	ev.TsUs = since.Microseconds()
	tr.buf[(tr.seq-1)%uint64(len(tr.buf))] = ev
}

// Trace returns the flight recorder's retained events in global order,
// filtered to one guest when guestID != 0. Empty when tracing is disabled.
func (s *Supervisor) Trace(guestID uint64) []TraceEvent {
	m := &s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	tr := &m.ring
	n := uint64(len(tr.buf))
	var out []TraceEvent
	for seq := tr.seq - min(tr.seq, n) + 1; seq <= tr.seq; seq++ {
		if ev := tr.buf[(seq-1)%n]; guestID == 0 || ev.Guest == guestID {
			out = append(out, ev)
		}
	}
	return out
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

// outcomeCause is the one classification of how a guest ended: the Cause of
// its finish event, which record folds into the outcome counters, and of a
// kill request's event.
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
	case errors.Is(err, rt.ErrKilled):
		return "killed"
	default:
		return "error"
	}
}
