package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Hostile HTTP clients: one that posts more than the daemon will buffer, one
// that opens a request and never finishes it, one that walks away from a
// live stream. Each may cost itself a connection and nobody else anything.

func newHostileServer(t *testing.T) *httptest.Server {
	return newObserveServer(t, 0, false, &bytes.Buffer{})
}

func TestOversizedBodyRefused(t *testing.T) {
	ts := newHostileServer(t)
	for _, path := range []string{"/run", "/restore"} {
		// One JSON string a little longer than the cap: the decoder has to
		// read past the cap before it could accept or reject it on syntax.
		body := io.MultiReader(
			strings.NewReader(`{"source":"`),
			bytes.NewReader(bytes.Repeat([]byte{'x'}, maxBodyBytes+1024)),
			strings.NewReader(`"}`),
		)
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s: HTTP %d, want 413", path, resp.StatusCode)
		}
	}
	// The daemon keeps serving, and a body under the cap is still welcome.
	id := submit(t, ts.URL, `console.log("still here");`)
	waitDone(t, ts.URL, id)
	if m := ts.Config.WriteTimeout; m != 0 {
		t.Errorf("WriteTimeout = %v; it would sever follow=1 streams", m)
	}
}

func TestStalledHeadersDropped(t *testing.T) {
	t.Parallel() // spends readHeaderTimeout waiting; let the rest of the package overlap it
	ts := newHostileServer(t)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, never the blank line that ends them.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stall\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn) // returns nil once the server closes its end
	if err != nil {
		t.Fatalf("server kept a header-stalled connection open past %v: %v", time.Since(start), err)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after the stalled client: HTTP %d", code)
	}
}

func TestAbandonedFollowStreamLeaksNothing(t *testing.T) {
	// The daemon's handler behind a front that counts requests still inside
	// it, so the test sees the follow handler return rather than inferring
	// it from the process's goroutine count.
	var inside atomic.Int32
	daemon := newHostileServer(t).Config.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inside.Add(1)
		defer inside.Add(-1)
		daemon.ServeHTTP(w, r)
	}))
	defer ts.Close()
	// A guest asleep on a long timer: once its one line is delivered the
	// stream has nothing to say, so the handler is parked waiting on the
	// guest and on the client.
	id := submit(t, ts.URL, `console.log("early"); setTimeout(function () { console.log("late"); }, 600000);`)
	waitFor(t, func() bool { return inside.Load() == 0 }, 5*time.Second, "submit request never returned")

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /output?id=%d&follow=1 HTTP/1.1\r\nHost: leak\r\n\r\n", id)
	if status, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.Contains(status, "200") {
		t.Fatalf("follow stream did not open: %q, %v", status, err)
	}
	if n := inside.Load(); n != 1 {
		t.Fatalf("%d handlers inside with the stream open, want 1; the test measures nothing", n)
	}
	conn.Close() // walk away mid-stream
	waitFor(t, func() bool { return inside.Load() == 0 }, 5*time.Second,
		"follow=1 handler still running after the client abandoned the stream")
}

// TestDeeplyNestedSourceRefused: 700 000 levels of `[` in a 1.4 MB body,
// under maxBodyBytes. Unbounded, the parser's recursion overflowed the Go
// stack, which no recover catches: the daemon died with every tenant in it.
// The source is a SyntaxError of its sender's, and the next guest runs.
func TestDeeplyNestedSourceRefused(t *testing.T) {
	ts := newHostileServer(t)
	const n = 700_000
	body, err := json.Marshal(map[string]string{"source": "var a = " + strings.Repeat("[", n) + strings.Repeat("]", n) + ";"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "Maximum call stack size exceeded") {
		t.Errorf("a %d-byte nested source: HTTP %d %q, want 422 and the parser's SyntaxError", len(body), resp.StatusCode, msg)
	}
	id := submit(t, ts.URL, `console.log("still here");`)
	waitDone(t, ts.URL, id)
}
