package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/supervisor"
)

// The streaming-output contract: ?follow=1 delivers bytes the guest has not
// even produced yet at request time, and a dropped client reconnects
// losslessly by passing the byte count it already holds as ?from=.
func TestOutputFollowAndReconnect(t *testing.T) {
	sup := supervisor.New(supervisor.Options{Workers: 2})
	defer sup.Close()
	srv := &server{sup: sup, retain: time.Minute}
	mux := http.NewServeMux()
	mux.HandleFunc("/output", srv.onGuest(srv.handleOutput))
	ts := httptest.NewServer(srv.withRecover(mux))
	defer ts.Close()

	// A multi-turn guest: output trickles out across timer turns, so the
	// follower must wait mid-stream rather than read one prefilled buffer.
	g, err := sup.Submit(supervisor.SubmitOptions{Source: `
var turn = 0;
function step() {
  console.log("line", turn);
  turn++;
  if (turn < 4) { setTimeout(step, 40); }
}
step();
`})
	if err != nil {
		t.Fatal(err)
	}
	want := "line 0\nline 1\nline 2\nline 3\n"

	// Follow from byte 0, starting before the guest has produced anything.
	// The body closes when the guest finishes; its content must be the whole
	// transcript.
	resp, err := http.Get(fmt.Sprintf("%s/output?id=%d&follow=1", ts.URL, g.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != want {
		t.Fatalf("follow stream = %q, want %q", body, want)
	}

	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("guest error: %v", res.Err)
	}

	// Reconnect: a client that already holds the first line resumes at its
	// offset and gets exactly the rest.
	from := len("line 0\n")
	resp, err = http.Get(fmt.Sprintf("%s/output?id=%d&from=%d", ts.URL, g.ID, from))
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(tail) != want[from:] {
		t.Fatalf("reconnect from %d = %q, want %q", from, tail, want[from:])
	}
	if got := resp.Header.Get("X-Stopify-Next-Offset"); got != fmt.Sprint(len(want)) {
		t.Fatalf("next offset header = %q, want %d", got, len(want))
	}

	// Follow-mode reconnect on a finished guest drains the tail and closes.
	resp, err = http.Get(fmt.Sprintf("%s/output?id=%d&follow=1&from=%d", ts.URL, g.ID, from))
	if err != nil {
		t.Fatal(err)
	}
	tail, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(tail) != want[from:] {
		t.Fatalf("follow reconnect = %q, want %q", tail, want[from:])
	}

	// An offset past the end is clamped, not an error: empty body, next
	// offset pinned to the recorded length.
	resp, err = http.Get(fmt.Sprintf("%s/output?id=%d&from=%d", ts.URL, g.ID, len(want)+100))
	if err != nil {
		t.Fatal(err)
	}
	over, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(over) != 0 || resp.Header.Get("X-Stopify-Next-Offset") != fmt.Sprint(len(want)) {
		t.Fatalf("past-end read = %q (next %s), want empty at %d",
			over, resp.Header.Get("X-Stopify-Next-Offset"), len(want))
	}
}
