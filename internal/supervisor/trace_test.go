package supervisor

import (
	"encoding/json"
	"testing"
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
