package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/supervisor"
)

// newObserveServer assembles the daemon in-process (no binary, no port
// hunting): a real supervisor behind the daemon's own http.Server — routes,
// barriers and timeouts exactly as main() serves them — with the process log
// captured into logBuf.
func newObserveServer(t *testing.T, profileEvery uint64, logJSON bool, logBuf *bytes.Buffer) *httptest.Server {
	t.Helper()
	sup := supervisor.New(supervisor.Options{
		Workers:      2,
		MaxPending:   256,
		QuantumSteps: 1000,
		ProfileEvery: profileEvery,
	})
	t.Cleanup(func() { sup.Close() })
	srv := &server{
		sup:          sup,
		retain:       time.Minute,
		defaults:     supervisor.Policy{MaxOutputBytes: 1 << 20},
		profileEvery: profileEvery,
		logJSON:      logJSON,
		bootNonce:    "cafe0000",
	}
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = srv.httpServer("")
	ts.Start()
	t.Cleanup(ts.Close)

	log.SetOutput(logBuf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return ts
}

// observeSrc keeps the hot statements inside named functions so the profile
// endpoint has real guest names to attribute.
const observeSrc = `
function crunch(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s += i * i; }
  return s;
}
function driver() {
  var t = 0;
  for (var k = 0; k < 40; k++) { t += crunch(300); }
  return t;
}
console.log(driver());
`

// waitDone polls /status until the run reports finished.
func waitDone(t *testing.T, base string, id uint64) {
	t.Helper()
	waitFor(t, func() bool {
		_, body := get(t, base+"/status?id="+itoa(id))
		var st struct {
			Finished bool `json:"finished"`
		}
		return json.Unmarshal([]byte(body), &st) == nil && st.Finished
	}, 15*time.Second, "guest never finished")
}

func itoa(id uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + id%10)
		id /= 10
		if id == 0 {
			return string(b[i:])
		}
	}
}

// TestObservabilityEndpoints drives the full observe surface: run a guest,
// then read back its trace (JSON lines and Chrome format), its folded-stack
// profile naming real guest functions, and a Prometheus scrape — all stamped
// with request ids, all logged as JSON.
func TestObservabilityEndpoints(t *testing.T) {
	t.Run("bytecode", func(t *testing.T) {
		var logBuf bytes.Buffer
		ts := newObserveServer(t, 97, true, &logBuf)
		id := submit(t, ts.URL, observeSrc)
		waitDone(t, ts.URL, id)

		// Folded-stack profile: per-tenant prefix, real function names.
		code, prof := get(t, ts.URL+"/profile?id="+itoa(id))
		if code != http.StatusOK {
			t.Fatalf("/profile: HTTP %d", code)
		}
		if !strings.Contains(prof, "crunch") || !strings.Contains(prof, "driver") {
			t.Errorf("profile does not name the guest's functions:\n%s", prof)
		}
		for _, line := range strings.Split(strings.TrimSpace(prof), "\n") {
			if !strings.HasPrefix(line, "guest"+itoa(id)+";") {
				t.Fatalf("profile line %q lacks the tenant prefix", line)
			}
		}

		// JSON-lines trace, filtered to this guest.
		code, trace := get(t, ts.URL+"/trace?id="+itoa(id))
		if code != http.StatusOK {
			t.Fatalf("/trace: HTTP %d", code)
		}
		sawFinish := false
		for _, line := range strings.Split(strings.TrimSpace(trace), "\n") {
			var ev struct {
				Type  string `json:"type"`
				Guest uint64 `json:"guest"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("trace line %q: %v", line, err)
			}
			if ev.Guest != id {
				t.Fatalf("trace filter leaked guest %d", ev.Guest)
			}
			if ev.Type == "finish" {
				sawFinish = true
			}
		}
		if !sawFinish {
			t.Error("filtered trace has no finish event")
		}

		// Chrome rendering parses as one JSON document.
		_, chrome := get(t, ts.URL+"/trace?format=chrome")
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(chrome), &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("chrome trace invalid (err=%v, %d events)", err, len(doc.TraceEvents))
		}

		// Prometheus scrape alongside the JSON default.
		_, prom := get(t, ts.URL+"/metrics?format=prom")
		if !strings.Contains(prom, "# TYPE stopify_guests_completed_total counter") {
			t.Errorf("prom scrape missing typed counters:\n%.300s", prom)
		}
		_, plain := get(t, ts.URL+"/metrics")
		if !strings.Contains(plain, `"completed"`) {
			t.Error("/metrics JSON default broke")
		}

		// Request ids: echoed on the wire...
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		rid := resp.Header.Get("X-Stopify-Request-Id")
		if !strings.HasPrefix(rid, "cafe0000-") {
			t.Errorf("X-Stopify-Request-Id = %q, want boot-nonce prefix", rid)
		}

		// ...and in the structured log, one JSON object per request.
		logged := false
		for _, line := range strings.Split(logBuf.String(), "\n") {
			idx := strings.IndexByte(line, '{')
			if idx < 0 {
				continue
			}
			var entry struct {
				RequestID string  `json:"request_id"`
				Method    string  `json:"method"`
				Path      string  `json:"path"`
				Guest     string  `json:"guest"`
				Status    int     `json:"status"`
				Duration  float64 `json:"duration_ms"`
			}
			if err := json.Unmarshal([]byte(line[idx:]), &entry); err != nil {
				t.Fatalf("unparseable JSON log line %q: %v", line, err)
			}
			if entry.Path == "/profile" && entry.Guest == itoa(id) &&
				entry.Status == http.StatusOK && entry.RequestID != "" {
				logged = true
			}
		}
		if !logged {
			t.Errorf("no JSON log line for the /profile request:\n%s", logBuf.String())
		}
	})
}

// TestProfileEndpointDisabled: without -profile-every the endpoint must
// explain itself, not return an empty profile that looks like "no samples".
func TestProfileEndpointDisabled(t *testing.T) {
	var logBuf bytes.Buffer
	ts := newObserveServer(t, 0, false, &logBuf)
	id := submit(t, ts.URL, `console.log("x");`)
	waitDone(t, ts.URL, id)
	code, body := get(t, ts.URL+"/profile?id="+itoa(id))
	if code != http.StatusConflict {
		t.Fatalf("/profile with profiling off: HTTP %d, want 409", code)
	}
	if !strings.Contains(body, "-profile-every") {
		t.Errorf("error %q does not tell the operator which flag to set", body)
	}
}
