package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSnapshotHandoffSmoke is the cross-process restore check the CI
// snapshot leg runs: build the real binary, start TWO daemons, run a guest
// halfway on the first, pause it, pull its serialized continuation over
// /snapshot (which kills the source copy — hand-off, not copy), push the
// blob into the second daemon over /restore, and assert the guest finishes
// there with the full output — phase1 printed in process A, phase2 in
// process B — and its cumulative step accounting intact.
func TestSnapshotHandoffSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}

	bin := filepath.Join(t.TempDir(), "stopifyd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	baseA := startDaemon(t, bin)
	baseB := startDaemon(t, bin)

	// The traveler: prints, schedules its finale on a *bound function* timer
	// with a forwarded extra arg (plus a cleared twin that must stay dead
	// in process B), holds a Date whose time-value must survive the move,
	// then burns enough statements to outlive many quanta. The hand-off
	// happens mid-main with the timer pending, so the blob carries every
	// wire-v2 node kind across the process boundary.
	src := `
var born = new Date();
var t0 = born.getTime();
console.log("phase1");
function finishImpl(tag, bonus) {
  var s = 0;
  for (var i = 0; i < 500000; i++) { s = (s + i) % 1048573; }
  console.log(tag, s + bonus, born.getTime() === t0 ? "stable" : "drift");
}
var decoy = setTimeout(finishImpl.bind(null, "never"), 5000, 0);
setTimeout(finishImpl.bind(null, "phase2"), 5000, 7);
clearTimeout(decoy);
var s = 0;
for (var i = 0; i < 2000000; i++) { s = (s + i) % 1048573; }
console.log("mid", s);
`
	mainSum, cbSum := 0, 0
	for i := 0; i < 2000000; i++ {
		mainSum = (mainSum + i) % 1048573
	}
	for i := 0; i < 500000; i++ {
		cbSum = (cbSum + i) % 1048573
	}
	wantOut := fmt.Sprintf("phase1\nmid %d\nphase2 %d stable\n", mainSum, cbSum+7)

	id := submit(t, baseA, src)

	// Wait for phase1 so the run demonstrably progressed in process A, then
	// pause it into quiescence.
	waitFor(t, func() bool {
		_, out := get(t, fmt.Sprintf("%s/output?id=%d", baseA, id))
		return strings.Contains(out, "phase1")
	}, 10*time.Second, "guest never reached phase1 on daemon A")
	post(t, fmt.Sprintf("%s/pause?id=%d", baseA, id), "")
	waitFor(t, func() bool {
		_, body := get(t, fmt.Sprintf("%s/status?id=%d", baseA, id))
		return strings.Contains(body, `"state": "paused"`)
	}, 10*time.Second, "guest never paused on daemon A")

	// Hand off. Default semantics kill the source copy: afterwards exactly
	// one daemon owns the continuation.
	code, body := postStatus(t, fmt.Sprintf("%s/snapshot?id=%d", baseA, id), "")
	if code != http.StatusOK {
		t.Fatalf("/snapshot: HTTP %d: %s", code, body)
	}
	var snap struct {
		Snapshot string `json:"snapshot"`
		Bytes    int    `json:"bytes"`
		Kept     bool   `json:"kept"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot response: %v\n%s", err, body)
	}
	if snap.Bytes == 0 || snap.Snapshot == "" {
		t.Fatalf("empty snapshot: %s", body)
	}
	if snap.Kept {
		t.Error("default snapshot should hand off (kept=false)")
	}

	// Restore into daemon B — a separate process with its own compile of the
	// program and its own runtime prelude.
	reqBody, _ := json.Marshal(map[string]string{"snapshot": snap.Snapshot})
	code, body = postStatus(t, baseB+"/restore", string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("/restore: HTTP %d: %s", code, body)
	}
	var admitted struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &admitted); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool {
		_, body := get(t, fmt.Sprintf("%s/status?id=%d", baseB, admitted.ID))
		return strings.Contains(body, `"finished": true`)
	}, 30*time.Second, "restored guest never finished on daemon B")

	_, out := get(t, fmt.Sprintf("%s/output?id=%d", baseB, admitted.ID))
	if out != wantOut {
		t.Fatalf("handed-off output %q, want %q", out, wantOut)
	}
	_, status := get(t, fmt.Sprintf("%s/status?id=%d", baseB, admitted.ID))
	var st struct {
		Steps uint64 `json:"steps"`
	}
	if err := json.Unmarshal([]byte(status), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps == 0 {
		t.Error("restored guest lost its step accounting")
	}

	_, metrics := get(t, baseB+"/metrics")
	if !strings.Contains(metrics, `"restore_admits": 1`) {
		t.Errorf("daemon B metrics missing restore admission:\n%s", metrics)
	}

	// The source copy was killed by the hand-off; it must not also have
	// produced phase2 (two daemons running one continuation would).
	_, srcStatus := get(t, fmt.Sprintf("%s/status?id=%d", baseA, id))
	if strings.Contains(srcStatus, "phase2") {
		t.Errorf("source copy kept running after hand-off:\n%s", srcStatus)
	}
}

// startDaemon builds nothing — it launches an already-built binary on a free
// port, registers cleanup, and waits for /healthz.
func startDaemon(t *testing.T, bin string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr, "-workers", "2", "-quantum", "2000")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	base := "http://" + addr
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}, 10*time.Second, "daemon never became healthy")
	return base
}

func post(t *testing.T, url, body string) {
	t.Helper()
	code, resp := postStatus(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", url, code, resp)
	}
}

func postStatus(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return resp.StatusCode, b.String()
}
