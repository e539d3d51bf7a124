package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/supervisor"
)

// TestOverridesNarrowOnly: a request may lower each limit of the daemon's
// policy, never raise it past a non-zero default; against a zero default
// (none) it sets the limit, except the output cap, whose zero is
// DefaultMaxOutput.
func TestOverridesNarrowOnly(t *testing.T) {
	def := supervisor.Policy{WallDeadline: 2 * time.Second, MaxTotalSteps: 1000, MaxOutputBytes: 100, MemBudgetBytes: 1 << 20}
	raise := policyOverrides{DeadlineMs: 1e9, MaxSteps: 1e15, MaxOutputBytes: 1 << 30, MemBudgetBytes: 1 << 40}
	if got, err := raise.apply(def); err != nil || got != def {
		t.Errorf("raising every limit gave %+v, %v; want the defaults %+v", got, err, def)
	}
	lower := policyOverrides{DeadlineMs: 500, MaxSteps: 10, MaxOutputBytes: 7, MemBudgetBytes: 4096}
	want := supervisor.Policy{WallDeadline: 500 * time.Millisecond, MaxTotalSteps: 10, MaxOutputBytes: 7, MemBudgetBytes: 4096}
	if got, _ := lower.apply(def); got != want {
		t.Errorf("lowering every limit gave %+v, want %+v", got, want)
	}
	got, _ := raise.apply(supervisor.Policy{})
	if got.WallDeadline != 1e9*time.Millisecond || got.MaxTotalSteps != 1e15 || got.MemBudgetBytes != 1<<40 {
		t.Errorf("against no default a request sets the limit: got %+v", got)
	}
	if got.MaxOutputBytes != supervisor.DefaultMaxOutput {
		t.Errorf("a zero output cap is DefaultMaxOutput, yet a request raised it to %d", got.MaxOutputBytes)
	}
}

// TestDeadlineLandsInCallbacks: a loop inside guest code that a native calls
// — a sort comparator, a map callback, a valueOf — yields nothing, yet the
// wall deadline still kills it on time and frees the one worker for the guest
// queued behind it. The request asks for more steps than it could run, which
// the daemon's unlimited default lets stand, so only the deadline can end it.
func TestDeadlineLandsInCallbacks(t *testing.T) {
	sup := supervisor.New(supervisor.Options{Workers: 1, QuantumSteps: 2000})
	t.Cleanup(sup.Close)
	srv := &server{sup: sup, retain: time.Minute, bootNonce: "cafe0001",
		defaults: supervisor.Policy{WallDeadline: 30 * time.Second, MaxOutputBytes: 1 << 20}}
	ts := httptest.NewServer(srv.httpServer("").Handler)
	t.Cleanup(ts.Close)
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	post := func(t *testing.T, body map[string]any) *supervisor.Guest {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			ID uint64 `json:"id"`
		}
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
			t.Fatalf("POST /run: HTTP %d", resp.StatusCode)
		}
		return sup.Guest(out.ID)
	}
	wait := func(t *testing.T, g *supervisor.Guest) supervisor.Result {
		t.Helper()
		select {
		case <-g.Done():
			return g.Result()
		case <-time.After(10 * time.Second):
			t.Fatalf("guest %d still %s after 10 s", g.ID, g.State())
			return supervisor.Result{}
		}
	}
	for _, c := range []struct{ name, src string }{
		{"sort", `[2, 1].sort(function (a, b) { while (true) {} });`},
		{"map", `[1].map(function (x) { while (true) {} });`},
		{"valueOf", `({valueOf: function () { while (true) {} }}) + 1;`},
	} {
		t.Run(c.name, func(t *testing.T) {
			looping := post(t, map[string]any{"source": c.src, "deadline_ms": 1000, "max_steps": uint64(1e15)})
			next := post(t, map[string]any{"source": `console.log("next");`})
			res := wait(t, looping)
			if !errors.Is(res.Err, supervisor.ErrDeadline) {
				t.Errorf("looping guest ended with %v, want ErrDeadline", res.Err)
			}
			if res.WallTime > 1100*time.Millisecond {
				t.Errorf("looping guest lived %v, want its 1 s deadline", res.WallTime)
			}
			if res := wait(t, next); res.Err != nil || res.Output != "next\n" {
				t.Errorf("queued guest: err=%v output=%q", res.Err, res.Output)
			}
		})
	}
}
