package supervisor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestGuestProfileHarvest: with Options.ProfileEvery set, a guest's folded
// profile accumulates across turns, names the guest's own JS functions, and
// stays readable after the guest finishes.
func TestGuestProfileHarvest(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 300, ProfileEvery: 97})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: guestSrc(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatalf("guest failed: %v", res.Err)
	}
	folded := g.ProfileFolded()
	if len(folded) == 0 {
		t.Fatal("profiler armed but no samples harvested")
	}
	sawFib := false
	for stack := range folded {
		if strings.Contains(stack, "fib") {
			sawFib = true
		}
	}
	if !sawFib {
		t.Errorf("no stack names the guest's fib function; folded = %v", folded)
	}

	text := string(FoldedText(folded, "guest1"))
	if !strings.HasPrefix(text, "guest1;") {
		t.Errorf("FoldedText prefix missing: %q", text[:min(len(text), 40)])
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "guest1;") || !strings.Contains(line, " ") {
			t.Fatalf("malformed folded line %q", line)
		}
	}
}

// TestGuestProfileDisabled: without ProfileEvery the harvest path must stay
// silent — no allocations, no phantom profiles.
func TestGuestProfileDisabled(t *testing.T) {
	s := New(Options{Workers: 1, QuantumSteps: 300})
	defer s.Close()
	g, err := s.Submit(SubmitOptions{Source: guestSrc(1)})
	if err != nil {
		t.Fatal(err)
	}
	g.Wait()
	if folded := g.ProfileFolded(); folded != nil {
		t.Fatalf("profiler disabled but harvested %v", folded)
	}
}

// TestRunLoadArtifacts is the acceptance check for the post-mortem pipeline:
// a short sustained-load run must leave a loadable Chrome-trace artifact and
// a non-empty per-tenant folded-stack profile.
func TestRunLoadArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := LoadConfig{
		ArrivalRate:  150,
		Duration:     1500 * time.Millisecond,
		MaxResident:  -1, // unbounded: the no-parking configuration
		ProfileEvery: 500,
		TraceOut:     filepath.Join(dir, "trace.json"),
		ProfileOut:   filepath.Join(dir, "profile.folded"),
	}
	res, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unexpected != 0 || res.Stragglers != 0 {
		t.Fatalf("unexpected=%d stragglers=%d (first: %s)", res.Unexpected, res.Stragglers, res.FirstUnexpected)
	}

	raw, err := os.ReadFile(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace artifact is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace artifact has no events")
	}

	prof, err := os.ReadFile(cfg.ProfileOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(prof), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("profile artifact is empty")
	}
	for _, line := range lines {
		if !bytes.HasPrefix(line, []byte("guest")) {
			t.Fatalf("profile line %q lacks the per-tenant guest prefix", line)
		}
	}
	// The load mix's own JS functions must be attributed by name.
	if !bytes.Contains(prof, []byte("$main")) {
		t.Error("profile names no guest code at all")
	}
}
