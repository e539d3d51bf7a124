package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name   string
	guest  int // the guest the call served; -1 for none
	parent int // index of the enclosing span; -1 for a root
	start  time.Duration
	end    time.Duration
}

// tracer records spans in memory around the benchmark's own calls; spans
// inside the system are a later change. A nil tracer records nothing, so
// the untraced run pays one nil check per call. The benchmark calls into
// the layers from one goroutine, which makes the enclosing span the top of
// a stack.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, guest int) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{name: name, guest: guest, parent: parent, start: time.Since(t.t0)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = time.Since(t.t0)
	t.stack = t.stack[:n]
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name    string
	count   int
	totalMs float64 // wall time inside the spans
	selfMs  float64 // totalMs minus the part child spans cover
}

// stats folds the spans by name, in order of first appearance.
func (t *tracer) stats() []spanStat {
	index := map[string]int{}
	var out []spanStat
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		j, ok := index[s.name]
		if !ok {
			j = len(out)
			index[s.name] = j
			out = append(out, spanStat{name: s.name})
		}
		d := s.end - s.start
		out[j].count++
		out[j].totalMs += ms(d)
		out[j].selfMs += ms(d - child[i])
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, one track per guest.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.guest + 1,
			Args: map[string]int{"span": i, "parent": s.parent, "guest": s.guest},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
