package supervisor

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// traceTypes collects the set of event types in a trace.
func traceTypes(evs []TraceEvent) map[string]int {
	out := map[string]int{}
	for _, ev := range evs {
		out[ev.Type]++
	}
	return out
}

// TestTraceRecordsLifecycle runs one guest to completion and checks the
// flight recorder captured its whole life in order: submit, schedule, turns
// with preemptions, finish — with worker, cause, and step attribution.
func TestTraceRecordsLifecycle(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 300})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: guestSrc(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatalf("guest failed: %v", res.Err)
	}

	evs := s.Trace(0)
	if len(evs) == 0 {
		t.Fatal("flight recorder is empty after a full guest lifecycle")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not in strict seq order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	types := traceTypes(evs)
	for _, want := range []string{TraceSubmit, TraceSchedule, TraceTurn, TracePreempt, TraceFinish} {
		if types[want] == 0 {
			t.Errorf("no %q event recorded; have %v", want, types)
		}
	}
	if types[TraceTurn] < 2 {
		t.Errorf("a 300-step quantum run recorded %d turns, want several", types[TraceTurn])
	}

	var finish *TraceEvent
	for i := range evs {
		ev := &evs[i]
		switch ev.Type {
		case TraceFinish:
			finish = ev
		case TraceSchedule, TraceTurn:
			if ev.Worker < 0 || ev.Worker >= 2 {
				t.Errorf("%s event on worker %d, want 0..1", ev.Type, ev.Worker)
			}
		}
	}
	if finish == nil {
		t.Fatal("no finish event")
	}
	if finish.Guest != g.ID || finish.Cause != "ok" || finish.Steps == 0 {
		t.Errorf("finish = %+v, want guest %d cause ok with steps", finish, g.ID)
	}
}

// TestTracePerGuestFilter submits two guests and checks ?id=-style filtering
// isolates one tenant's events.
func TestTracePerGuestFilter(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 300})
	defer s.Close()
	g1, err := s.Submit(SubmitOptions{Source: guestSrc(1)})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Submit(SubmitOptions{Source: guestSrc(2)})
	if err != nil {
		t.Fatal(err)
	}
	g1.Wait()
	g2.Wait()

	evs := s.Trace(g1.ID)
	if len(evs) == 0 {
		t.Fatal("per-guest filter returned nothing")
	}
	for _, ev := range evs {
		if ev.Guest != g1.ID {
			t.Fatalf("filtered trace leaked guest %d's %s event", ev.Guest, ev.Type)
		}
	}
	if types := traceTypes(evs); types[TraceFinish] != 1 {
		t.Errorf("guest %d has %d finish events, want 1", g1.ID, types[TraceFinish])
	}
	if got := s.Trace(99999); len(got) != 0 {
		t.Errorf("unknown guest id returned %d events", len(got))
	}
}

// TestTraceRingOverwrites bounds the recorder: it keeps exactly the last
// TraceCapacity events the fleet recorded, consecutive in sequence, whichever
// goroutine recorded them, and a long-lived fleet never grows it.
func TestTraceRingOverwrites(t *testing.T) {
	const capacity = 128
	s := New(Options{Workers: 1, QuantumSteps: 50, TraceCapacity: capacity})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: `var s = 0; for (var i = 0; i < 20000; i++) { s = (s + i) % 1000; }`})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatalf("guest failed: %v", res.Err)
	}
	evs := s.Trace(0)
	if len(evs) != capacity {
		t.Fatalf("ring holds %d events, want exactly %d", len(evs), capacity)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq %d follows seq %d: the ring dropped events it should keep", evs[i].Seq, evs[i-1].Seq)
		}
	}
	// The guest's finish is among the newest events: overwrite drops
	// oldest-first.
	sawFinish := false
	for _, ev := range evs {
		if ev.Type == TraceFinish && ev.Guest == g.ID {
			sawFinish = true
		}
	}
	if !sawFinish {
		t.Error("the finish event was evicted; the ring is not oldest-first")
	}
}

// TestTraceDisabled: a negative capacity turns the recorder off entirely —
// the nil-tracer fast path.
func TestTraceDisabled(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 1000, TraceCapacity: -1})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: `console.log("x");`})
	if err != nil {
		t.Fatal(err)
	}
	g.Wait()
	if evs := s.Trace(0); evs != nil {
		t.Fatalf("disabled recorder returned %d events", len(evs))
	}
}

// TestChromeTraceFormat checks the ?format=chrome rendering is valid JSON in
// the trace-event shape: turns as complete ("X") slices with durations,
// everything else as instants, plus thread-name metadata so the tracks are
// labeled.
func TestChromeTraceFormat(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 300})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: guestSrc(3)})
	if err != nil {
		t.Fatal(err)
	}
	g.Wait()

	raw := ChromeTrace(s.Trace(0))
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("ChromeTrace output is not valid JSON: %v", err)
	}
	var slices, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("slice %q has negative ts/dur: %+v", ev.Name, ev)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if slices == 0 || instants == 0 || meta == 0 {
		t.Errorf("chrome trace has %d slices, %d instants, %d metadata events; want all three kinds",
			slices, instants, meta)
	}
}

// TestMetricsAreAFoldOfTrace runs a fleet that reaches every outcome and
// every residency path — completion, a guest error, deadline, output cap,
// memory budget, explicit kill, a rejection, pause/resume, park and restore
// under MaxResident, a pin and a restore admit — on a ring that holds every
// event, then recomputes each counter of Metrics from Trace(0) alone. The
// two views are one record, so they agree field by field, and each window's
// turn count is the number of schedule events stamped inside it.
func TestMetricsAreAFoldOfTrace(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 500, MaxPending: 4, MaxResident: 1, TraceCapacity: 1 << 16})
	defer s.Close()
	submit := func(src string, pol *Policy) *Guest {
		t.Helper()
		g, err := s.Submit(SubmitOptions{Source: src, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Asleep when the pause lands, so the pause cannot race completion.
	const loop = `console.log("a");
setTimeout(function () {
  var s = 0;
  for (var i = 0; i < 3000; i++) { s = (s + i) % 101; }
  console.log("b", s);
}, 500);`

	// Four pending guests fill MaxPending: two paused, two asleep on a timer,
	// parked by the limiter in turn.
	handed := pausedGuest(t, s, loop)
	copts := core.Defaults()
	copts.YieldIntervalMs = 0
	copts.Eval = true
	pinned, err := s.Submit(SubmitOptions{Source: `eval("var f = function (x) { return x; };");` + loop, Compile: copts})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); outputOf(pinned) == "" && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	pinned.Pause()
	waitState(t, pinned, StatePaused)
	sleepers := []*Guest{submit(sleeperSrc(1), nil), submit(sleeperSrc(2), nil)}
	if _, err := s.Submit(SubmitOptions{Source: `1;`}); err != ErrQueueFull {
		t.Fatalf("fifth guest under MaxPending 4: err=%v, want ErrQueueFull", err)
	}
	if s.tryPark(pinned) {
		t.Fatal("a guest holding eval code parked")
	}
	blob, err := s.SnapshotGuest(handed.ID)
	if err != nil {
		t.Fatal(err)
	}
	handed.Kill(nil)
	handed.Wait()
	restored, err := s.Restore(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned.Resume()
	for _, g := range append(sleepers, restored, pinned) {
		if res := g.Wait(); res.Err != nil {
			t.Fatalf("guest %d: %v", g.ID, res.Err)
		}
	}

	// The policy kills and a guest error, four at a time.
	spin := `while (true) { var x = 1; }`
	killed := []*Guest{
		submit(spin, &Policy{WallDeadline: 30 * time.Millisecond}),
		submit(`while (true) { console.log("spam spam spam"); }`, &Policy{MaxOutputBytes: 64}),
		submit(hostileAllocSrc, &Policy{MemBudgetBytes: 256 << 10}),
		submit(`throw new Error("guest's own");`, nil),
	}
	for _, g := range killed {
		g.Wait()
	}
	g := submit(spin, nil)
	time.Sleep(10 * time.Millisecond)
	g.Kill(nil)
	g.Wait()

	m, evs, wins := s.Metrics(), s.Trace(0), s.Windows()
	if len(evs) == 0 || evs[0].Seq != 1 {
		t.Fatal("the ring did not keep every event")
	}
	var want Metrics
	var schedUs, turnUs, restoreUs int64
	schedIn := map[int64]int{}
	for _, ev := range evs {
		switch ev.Type {
		case TraceSubmit:
			if ev.Bytes > 0 {
				want.RestoreAdmits++
			} else {
				want.Submitted++
			}
		case TraceReject:
			want.Rejected++
		case TraceSchedule:
			want.SchedLatency.Count++
			schedUs += ev.WaitUs
			schedIn[ev.TsUs/int64(metricsWindow/time.Microsecond)]++
		case TraceTurn:
			want.TurnDuration.Count++
			turnUs += ev.DurUs
			if ev.Cause == "preempt" {
				want.Preemptions++
			}
		case TracePark:
			want.Parks++
			want.SnapshotBytesTotal += uint64(ev.Bytes)
		case TracePin:
			want.ParkPins++
			if want.ParkPinsByReason == nil {
				want.ParkPinsByReason = map[string]uint64{}
			}
			want.ParkPinsByReason[ev.Cause]++
		case TraceRestore:
			want.Restores++
			want.RestoreLatency.Count++
			restoreUs += ev.DurUs
		case TraceFinish:
			want.StepsTotal += ev.Steps
			counter := map[string]*uint64{
				"ok": &want.Completed, "error": &want.Failed, "stalled": &want.Failed,
				"deadline": &want.KilledDeadline, "output": &want.KilledOutput,
				"mem": &want.KilledMem, "shutdown": &want.KilledShutdown, "killed": &want.KilledExplicit,
			}[ev.Cause]
			if counter == nil {
				t.Fatalf("finish with cause %q", ev.Cause)
			}
			*counter++
		}
	}
	want.Killed = want.KilledDeadline + want.KilledOutput + want.KilledMem + want.KilledShutdown + want.KilledExplicit

	type field struct {
		name      string
		got, want uint64
	}
	fields := []field{
		{"submitted", m.Submitted, want.Submitted},
		{"rejected", m.Rejected, want.Rejected},
		{"completed", m.Completed, want.Completed},
		{"failed", m.Failed, want.Failed},
		{"killed", m.Killed, want.Killed},
		{"killed_deadline", m.KilledDeadline, want.KilledDeadline},
		{"killed_output", m.KilledOutput, want.KilledOutput},
		{"killed_mem", m.KilledMem, want.KilledMem},
		{"killed_explicit", m.KilledExplicit, want.KilledExplicit},
		{"preemptions", m.Preemptions, want.Preemptions},
		{"steps_total", m.StepsTotal, want.StepsTotal},
		{"parks", m.Parks, want.Parks},
		{"restores", m.Restores, want.Restores},
		{"park_pins", m.ParkPins, want.ParkPins},
		{"park_pins_by_reason[eval]", m.ParkPinsByReason[snapshot.PinEval], want.ParkPinsByReason[snapshot.PinEval]},
		{"snapshot_bytes_total", m.SnapshotBytesTotal, want.SnapshotBytesTotal},
		{"restore_admits", m.RestoreAdmits, want.RestoreAdmits},
		{"sched_latency.count", uint64(m.SchedLatency.Count), uint64(want.SchedLatency.Count)},
		{"turn_duration.count", uint64(m.TurnDuration.Count), uint64(want.TurnDuration.Count)},
		{"restore_latency.count", uint64(m.RestoreLatency.Count), uint64(want.RestoreLatency.Count)},
	}
	for _, f := range fields {
		if f.got != f.want {
			t.Errorf("%s: /metrics says %d, the trace folds to %d", f.name, f.got, f.want)
		}
		if f.want == 0 {
			t.Errorf("%s is 0: the fleet did not reach it", f.name)
		}
	}
	if m.KilledShutdown != 0 || m.InternalFaults != 0 || len(m.ParkPinsByReason) != len(want.ParkPinsByReason) {
		t.Errorf("shutdown=%d faults=%d pins by reason %v, trace %v",
			m.KilledShutdown, m.InternalFaults, m.ParkPinsByReason, want.ParkPinsByReason)
	}
	// The events carry microseconds, the histograms nanoseconds: each event
	// truncates less than one microsecond.
	for _, h := range []struct {
		name  string
		sumMs float64
		us    int64
		n     int
	}{
		{"sched", m.SchedLatency.SumMs, schedUs, m.SchedLatency.Count},
		{"turn", m.TurnDuration.SumMs, turnUs, m.TurnDuration.Count},
		{"restore", m.RestoreLatency.SumMs, restoreUs, m.RestoreLatency.Count},
	} {
		if d := h.sumMs*1000 - float64(h.us); d < -1e-6 || d > float64(h.n) {
			t.Errorf("%s: histogram sum %.3f ms, events sum %d µs over %d events", h.name, h.sumMs, h.us, h.n)
		}
	}
	for _, w := range wins {
		idx := int64(w.StartMs / w.WidthMs)
		if w.Turns != schedIn[idx] {
			t.Errorf("window %d: %d turns, %d schedule events stamped in it", idx, w.Turns, schedIn[idx])
		}
		delete(schedIn, idx)
	}
	if len(schedIn) != 0 {
		t.Errorf("schedule events outside every window: %v", schedIn)
	}
}
