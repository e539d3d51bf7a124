// Command stopifyd is the serving façade over the execution supervisor:
// an HTTP daemon that accepts untrusted JavaScript, schedules it among
// thousands of concurrent tenants on a bounded worker pool, and exposes
// the paper's execution-control operations — pause, resume, inspect,
// graceful kill — per run, over the wire.
//
//	stopifyd -addr :8034 -workers 4
//
//	POST /run     {"source": "...", "lane": "interactive", "deadline_ms": 5000}
//	              → {"id": 7}
//	GET  /status?id=7      → scheduling state, counters, output so far
//	GET  /output?id=7      → raw console output (X-Stopify-Next-Offset for polling)
//	GET  /output?id=7&follow=1&from=120
//	                       → live chunked stream from byte 120; a dropped client
//	                         reconnects with from=<bytes it already has>, losslessly
//	POST /cancel?id=7      → graceful kill at the next yield point
//	POST /pause?id=7       → take the run off the scheduler
//	POST /resume?id=7      → put it back
//	POST /snapshot?id=7    → serialize a quiescent run; &keep=1 leaves it running here
//	POST /restore          {"snapshot": "<base64>"} → admit a blob from any daemon
//	GET  /metrics          → fleet aggregates (queue depth, sched latency P99, ...)
//	GET  /metrics?format=prom → the same, Prometheus text exposition
//	GET  /trace            → flight-recorder ring as JSON lines; ?id= filters
//	                         to one guest, ?format=chrome renders the Chrome
//	                         trace-event JSON that about://tracing loads
//	GET  /profile?id=7     → guest-level sampling profile, folded-stack text
//	                         (requires -profile-every > 0)
//	GET  /healthz          → liveness: 200 while the process serves, draining too
//	GET  /readyz           → readiness: 503 with Retry-After while draining
//
// A route asked with another method answers 405 with an Allow header; a
// route that names a run answers 400 for a missing or garbled id and 404 for
// an unknown one.
//
// Every tenant gets the daemon's default policy unless its request narrows
// it; a misbehaving guest (infinite loop, output bomb) dies by policy
// without disturbing neighbors — the multi-tenant isolation argument of
// the transaction-sandboxing literature, built from yield points.
package main

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/supervisor"
)

func main() {
	var (
		addr       = flag.String("addr", ":8034", "listen address")
		workers    = flag.Int("workers", 4, "executor pool size")
		maxPending = flag.Int("max-pending", 4096, "admission bound (backpressure beyond it)")
		quantum    = flag.Uint64("quantum", 2000, "scheduling quantum in statements")
		deadline   = flag.Duration("deadline", 30*time.Second, "default per-run wall deadline (0 = none)")
		maxSteps   = flag.Uint64("max-steps", 50_000_000, "default per-run statement budget (0 = none)")
		maxOutput  = flag.Int("max-output", 1<<20, "default per-run output cap in bytes")
		retain     = flag.Duration("retain", 10*time.Minute, "how long finished runs stay pollable before eviction")
		memBudget  = flag.Uint64("mem-budget", 256<<20, "default per-run allocation budget in bytes (0 = unmetered)")
		drainFor   = flag.Duration("drain", 15*time.Second, "how long SIGTERM waits for in-flight runs before killing them")
		maxRes     = flag.Int("max-resident", 0, "max live realms in memory; idle guests beyond it park to snapshots (0 = unlimited)")
		parkDir    = flag.String("park-dir", "", "directory for parked-guest snapshots (empty = keep blobs in memory)")
		profEvery  = flag.Uint64("profile-every", 0, "guest profiler sampling period in statements (0 = profiling off)")
		traceCap   = flag.Int("trace-capacity", 0, "flight-recorder ring capacity in events (0 = default, negative = tracing off)")
		logFormat  = flag.String("log-format", "text", "request log format: text or json")
		pprofAddr  = flag.String("pprof-addr", "", "serve Go pprof (host-process profiling) on this address; empty = off")
	)
	flag.Parse()
	if *logFormat != "text" && *logFormat != "json" {
		log.Fatalf("stopifyd: unknown -log-format %q (want text or json)", *logFormat)
	}

	defaults := supervisor.Policy{
		WallDeadline:   *deadline,
		MaxTotalSteps:  *maxSteps,
		MaxOutputBytes: *maxOutput,
		MemBudgetBytes: *memBudget,
	}
	sup := supervisor.New(supervisor.Options{
		Workers:       *workers,
		MaxPending:    *maxPending,
		QuantumSteps:  *quantum,
		MaxResident:   *maxRes,
		ParkDir:       *parkDir,
		ProfileEvery:  *profEvery,
		TraceCapacity: *traceCap,
		DefaultPolicy: defaults,
	})

	srv := &server{sup: sup, retain: *retain, defaults: defaults,
		profileEvery: *profEvery, logJSON: *logFormat == "json"}
	srv.bootNonce = bootNonce()
	go srv.janitor()

	if *pprofAddr != "" {
		// Host-process profiling (the Go runtime: supervisor goroutines, GC,
		// the interpreter as seen from Go). This is a different layer from
		// GET /profile, which samples the *guest's* JavaScript frames; the
		// two answer different questions. Off by default — pprof handlers
		// are not something to expose on the tenant-facing address.
		go func() {
			log.Printf("stopifyd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("stopifyd: pprof listener: %v", err)
			}
		}()
	}

	hs := srv.httpServer(*addr)

	// Graceful shutdown: SIGTERM (what an orchestrator sends) or Ctrl-C
	// flips the daemon into draining mode — admission refuses with
	// Retry-After and /readyz goes unready so a load balancer rotates the
	// node out, while status/output/metrics keep serving. In-flight runs
	// get up to -drain to finish on their own; whatever remains is killed
	// (ErrShutdown) by Close. Only then does the HTTP server stop.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.draining.Store(true)
		log.Printf("stopifyd: draining (up to %s for in-flight runs)", *drainFor)
		drained := sup.DrainTimeout(*drainFor)
		sup.Close()
		m := sup.Metrics()
		log.Printf("stopifyd: drained clean=%v completed=%d failed=%d killed=%d faults=%d",
			drained, m.Completed, m.Failed, m.Killed, m.InternalFaults)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		close(done)
	}()
	log.Printf("stopifyd: serving on %s (%d workers, quantum %d steps)", *addr, *workers, *quantum)
	if err := hs.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// Bounds on what one client can cost the daemon before a guest exists.
const (
	// readHeaderTimeout drops a connection that opens a request and never
	// finishes its headers.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout reclaims keep-alive connections nobody is using.
	idleTimeout = 2 * time.Minute
	// maxBodyBytes caps a /run or /restore body: far above any program or
	// base64 snapshot the tests and harnesses post, far below what would let
	// one request exhaust the host.
	maxBodyBytes = 16 << 20
)

// httpServer assembles the daemon's route table behind the logging and panic
// barriers. Each pattern names its method, so the mux itself answers a
// wrong one (405, with Allow). There is deliberately no WriteTimeout: it
// would sever /output?follow=1 streams, whose lifetime is the guest's.
func (s *server) httpServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /restore", s.handleRestore)
	mux.HandleFunc("GET /status", s.onGuest(s.handleStatus))
	mux.HandleFunc("GET /output", s.onGuest(s.handleOutput))
	mux.HandleFunc("POST /cancel", s.onGuest(control(func(g *supervisor.Guest) { g.Kill(nil) }, "kill requested")))
	mux.HandleFunc("POST /pause", s.onGuest(control((*supervisor.Guest).Pause, "pause requested")))
	mux.HandleFunc("POST /resume", s.onGuest(control((*supervisor.Guest).Resume, "resumed")))
	mux.HandleFunc("POST /snapshot", s.onGuest(s.handleSnapshot))
	mux.HandleFunc("GET /profile", s.handleProfile)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return &http.Server{
		Addr:              addr,
		Handler:           s.withLog(s.withRecover(mux)),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

type server struct {
	sup          *supervisor.Supervisor
	defaults     supervisor.Policy
	retain       time.Duration
	profileEvery uint64 // sampling period wired into the supervisor; 0 = /profile refuses
	logJSON      bool   // -log-format=json: one JSON object per request
	bootNonce    string // random per-process prefix for request ids
	reqSeq       atomic.Uint64
	draining     atomic.Bool // SIGTERM received: refuse admission, fail /readyz
}

// janitor evicts finished runs once they have been pollable for the
// retention window, measured from their finish: the supervisor keeps guests
// addressable until removed, so a serving daemon must evict or leak one
// Result (output buffer included) per finished run.
func (s *server) janitor() {
	for range time.Tick(max(s.retain/10, time.Second)) {
		s.sup.RemoveFinished(s.retain)
	}
}

// policyOverrides is how a /run or /restore body narrows the daemon's
// default policy: a zero field keeps the default, and a limit may be
// lowered, never raised past a non-zero default.
type policyOverrides struct {
	// Lane: "batch" (default) or "interactive".
	Lane           string  `json:"lane,omitempty"`
	DeadlineMs     float64 `json:"deadline_ms,omitempty"`
	MaxSteps       uint64  `json:"max_steps,omitempty"`
	MaxOutputBytes int     `json:"max_output_bytes,omitempty"`
	MemBudgetBytes uint64  `json:"mem_budget_bytes,omitempty"`
}

func (o policyOverrides) apply(pol supervisor.Policy) (supervisor.Policy, error) {
	switch o.Lane {
	case "", "batch":
	case "interactive":
		pol.Lane = supervisor.LaneInteractive
	default:
		return pol, fmt.Errorf("unknown lane %q", o.Lane)
	}
	pol.WallDeadline = narrow(time.Duration(o.DeadlineMs*float64(time.Millisecond)), pol.WallDeadline)
	pol.MaxTotalSteps = narrow(o.MaxSteps, pol.MaxTotalSteps)
	// The supervisor reads a zero output cap as DefaultMaxOutput, not as none.
	pol.MaxOutputBytes = narrow(o.MaxOutputBytes, cmp.Or(pol.MaxOutputBytes, supervisor.DefaultMaxOutput))
	pol.MemBudgetBytes = narrow(o.MemBudgetBytes, pol.MemBudgetBytes)
	return pol, nil
}

// narrow is a limit a request asks for, req, against the daemon's default,
// def: req when it is set and the default is none or larger, else def.
func narrow[T time.Duration | uint64 | int](req, def T) T {
	if req > 0 && (def == 0 || req < def) {
		return req
	}
	return def
}

// runRequest is POST /run's body.
type runRequest struct {
	Source string `json:"source"`
	policyOverrides
}

// statusResponse is GET /status's body: the guest Info plus its output and
// result when finished.
type statusResponse struct {
	supervisor.Info
	Output   string `json:"output,omitempty"`
	Finished bool   `json:"finished"`
}

// admission is the front half of /run and /restore: refused while draining,
// body size-capped and decoded into req together with the policy it asks
// for. ok is false when the response has been written.
func (s *server) admission(w http.ResponseWriter, r *http.Request, req interface{}, o *policyOverrides) (pol supervisor.Policy, ok bool) {
	if s.draining.Load() {
		writeError(w, errDraining, "")
		return pol, false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), code)
		return pol, false
	}
	pol, err := o.apply(s.defaults)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return pol, false
	}
	return pol, true
}

// admitted is the back half: the new run's id, or why there is none.
func admitted(w http.ResponseWriter, g *supervisor.Guest, err error, stage string) {
	if err != nil {
		writeError(w, err, stage)
		return
	}
	writeJSON(w, map[string]uint64{"id": g.ID})
}

// errDraining refuses admission and readiness once SIGTERM has arrived: this
// node is going away, and Retry-After tells the client when another attempt
// (against a healthy node) makes sense.
var errDraining = errors.New("draining")

// writeError is the one mapping from a supervisor error to an HTTP status:
// a refused admission is transient (429 when the queue is full, 503 when the
// supervisor closed or the daemon drains, both with Retry-After); a run in
// the wrong state for the request is a 409; anything else is the program's
// or the blob's fault, a 422 prefixed with the stage that refused it.
func writeError(w http.ResponseWriter, err error, stage string) {
	switch err {
	case supervisor.ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case supervisor.ErrClosed, errDraining:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case supervisor.ErrNotQuiescent, supervisor.ErrFinished:
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, stage+": "+err.Error(), http.StatusUnprocessableEntity)
	}
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	pol, ok := s.admission(w, r, &req, &req.policyOverrides)
	if !ok {
		return
	}
	g, err := s.sup.Submit(supervisor.SubmitOptions{Source: req.Source, Policy: &pol})
	admitted(w, g, err, "compile")
}

// guestHandler serves a request about one run.
type guestHandler func(w http.ResponseWriter, r *http.Request, g *supervisor.Guest)

// guestID parses ?id=.
func guestID(r *http.Request) (uint64, error) {
	return strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
}

// onGuest resolves ?id= to its run for h: 400 when the id is missing or
// garbled, 404 when no run has it.
func (s *server) onGuest(h guestHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := guestID(r)
		if err != nil {
			http.Error(w, "bad or missing id", http.StatusBadRequest)
			return
		}
		g := s.sup.Guest(id)
		if g == nil {
			http.Error(w, "no such run", http.StatusNotFound)
			return
		}
		h(w, r, g)
	}
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request, g *supervisor.Guest) {
	resp := statusResponse{Info: g.Inspect()}
	if resp.State == "done" {
		resp.Finished = true
		resp.Output = g.Result().Output
	}
	writeJSON(w, resp)
}

// handleOutput serves console output. Plain GET returns everything recorded
// so far (from byte ?from=, default 0) with X-Stopify-Next-Offset naming
// where the next poll should resume. ?follow=1 upgrades to a live stream:
// chunks are flushed as the guest writes them, until the guest finishes or
// the client goes away. A disconnected client reconnects losslessly by
// passing the byte count it already holds as ?from= — output offsets are
// stable for the guest's whole retained life, park/restore included.
func (s *server) handleOutput(w http.ResponseWriter, r *http.Request, g *supervisor.Guest) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad from offset", http.StatusBadRequest)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")

	if r.URL.Query().Get("follow") == "" {
		data, next := g.OutputSince(from)
		w.Header().Set("X-Stopify-Next-Offset", strconv.Itoa(next))
		w.Write(data)
		return
	}

	// Follow mode. The grab-channel-then-read order makes the loop lossless:
	// a write that lands after OutputSince closes the channel we are about to
	// select on, so the next iteration picks it up.
	fl, _ := w.(http.Flusher)
	off := from
	for {
		ch := g.OutputChanged()
		data, next := g.OutputSince(off)
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return // client went away
			}
			off = next
			if fl != nil {
				fl.Flush()
			}
			continue
		}
		select {
		case <-ch:
		case <-g.Done():
			// Final drain: the guest finished after our last read.
			if data, _ := g.OutputSince(off); len(data) > 0 {
				w.Write(data)
				if fl != nil {
					fl.Flush()
				}
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// control builds the handler of a control verb on one run.
func control(verb func(*supervisor.Guest), msg string) guestHandler {
	return func(w http.ResponseWriter, r *http.Request, g *supervisor.Guest) {
		verb(g)
		writeJSON(w, map[string]string{"status": msg})
	}
}

// snapshotResponse is POST /snapshot's body: the serialized continuation,
// base64-encoded for JSON transport, plus its raw size.
type snapshotResponse struct {
	ID       uint64 `json:"id"`
	Snapshot string `json:"snapshot"`
	Bytes    int    `json:"bytes"`
	// Kept reports whether the run is still executing on this daemon
	// (?keep=1); by default a hand-off kills the source copy so exactly one
	// daemon owns the continuation.
	Kept bool `json:"kept"`
}

// handleSnapshot serializes a quiescent run (paused, asleep on a timer, or
// already parked) into a portable blob. The default is hand-off semantics:
// the local copy is killed once the blob is written, so the continuation has
// a single owner; ?keep=1 turns it into a pure checkpoint instead. Snapshot
// works during a drain — evacuating tenants to another node is exactly what
// a draining daemon is for.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request, g *supervisor.Guest) {
	blob, err := s.sup.SnapshotGuest(g.ID)
	if err != nil {
		// Not quiescent or finished: 409. Pinned (live native, opaque
		// state): the run cannot travel, but it is unharmed and keeps
		// executing here.
		writeError(w, err, "snapshot")
		return
	}
	keep := r.URL.Query().Get("keep") != ""
	if !keep {
		g.Kill(nil)
	}
	writeJSON(w, snapshotResponse{
		ID:       g.ID,
		Snapshot: base64.StdEncoding.EncodeToString(blob),
		Bytes:    len(blob),
		Kept:     keep,
	})
}

// restoreRequest is POST /restore's body. Step and memory accounting inside
// the blob is cumulative, so the budgets bound the guest's whole life — what
// it spent on the originating daemon counts here too.
type restoreRequest struct {
	Snapshot string `json:"snapshot"` // base64 blob from /snapshot
	policyOverrides
}

// handleRestore admits a snapshot blob — typically produced by /snapshot on
// another daemon — as a new run. Admission is synchronous (a corrupt blob
// fails here, not on a worker later); the realm itself is rebuilt lazily on
// the run's first scheduling turn.
func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var req restoreRequest
	pol, ok := s.admission(w, r, &req, &req.policyOverrides)
	if !ok {
		return
	}
	blob, err := base64.StdEncoding.DecodeString(req.Snapshot)
	if err != nil {
		http.Error(w, "bad snapshot encoding: "+err.Error(), http.StatusBadRequest)
		return
	}
	g, err := s.sup.Restore(blob, &pol)
	admitted(w, g, err, "restore")
}

// handleMetrics serves fleet aggregates. The JSON shape is the default and
// stays stable for existing pollers; ?format=prom renders the same single
// consistent snapshot as Prometheus text exposition for a scraper.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "":
		writeJSON(w, s.sup.Metrics())
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		supervisor.WriteProm(w, s.sup.Metrics(), s.sup.Windows())
	default:
		http.Error(w, "unknown format (want prom)", http.StatusBadRequest)
	}
}

// handleTrace dumps the flight recorder: every lifecycle event the ring still
// holds, in seq order. ?id= narrows to one guest's events (the per-tenant
// post-mortem view); ?format=chrome renders Chrome trace-event JSON that
// about://tracing or Perfetto loads directly, instead of the JSON-lines
// default.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var id uint64
	if r.URL.Query().Get("id") != "" {
		var err error
		if id, err = guestID(r); err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
	}
	evs := s.sup.Trace(id)
	switch r.URL.Query().Get("format") {
	case "":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(supervisor.TraceJSONLines(evs))
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Write(supervisor.ChromeTrace(evs))
	default:
		http.Error(w, "unknown format (want chrome)", http.StatusBadRequest)
	}
}

// handleProfile serves one guest's sampling profile as folded-stack text
// (flamegraph collapsed format) — guest JavaScript frames by function name,
// weighted in executed statements. This profiles the *guest's* code; host-Go
// profiling is the separate -pprof-addr listener. Samples accumulate at turn
// boundaries and survive park/restore, so a profile is available for the
// guest's whole retained life, including after it finishes. With profiling
// off it refuses before looking at the id.
func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.profileEvery == 0 {
		http.Error(w, "guest profiling is off: restart stopifyd with -profile-every N", http.StatusConflict)
		return
	}
	s.onGuest(func(w http.ResponseWriter, r *http.Request, g *supervisor.Guest) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(supervisor.FoldedText(g.ProfileFolded(), fmt.Sprintf("guest%d", g.ID)))
	})(w, r)
}

// handleHealthz is liveness: the process is up and serving. It stays 200
// during a drain — the node is healthy, just not accepting new work — so an
// orchestrator does not hard-kill a daemon mid-drain.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: whether this node should receive new traffic.
// A draining node reports 503 so the load balancer rotates it out while
// in-flight runs finish.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errDraining, "")
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// withRecover is the daemon-side panic barrier, the HTTP analogue of the
// supervisor worker's safeTurn: a panic in one handler becomes a logged 500
// for that request. (net/http would recover anyway, but it slams the
// connection shut with no response and no stack in our log.)
func (s *server) withRecover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("stopifyd: panic in %s handler: %v\n%s", r.URL.Path, rec, debug.Stack())
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// bootNonce is the random per-process prefix of request ids: ids stay unique
// across daemon restarts, so a log aggregator never conflates two requests.
func bootNonce() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000" // degraded but functional: ids still unique within the process
	}
	return hex.EncodeToString(b[:])
}

// statusWriter observes the status code and body size a handler produced.
// It forwards Flush so /output's follow mode keeps streaming through the
// logging layer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// requestLog is one -log-format=json line: everything an operator needs to
// correlate a request with guest lifecycle events in /trace.
type requestLog struct {
	Time       string  `json:"time"`
	RequestID  string  `json:"request_id"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Guest      string  `json:"guest,omitempty"` // ?id= when present
	Status     int     `json:"status"`
	DurationMs float64 `json:"duration_ms"`
	Bytes      int64   `json:"bytes"`
	Remote     string  `json:"remote,omitempty"`
}

// withLog assigns every request an id (echoed as X-Stopify-Request-Id so a
// client can quote it in a bug report) and logs one line per request —
// structured JSON under -log-format=json, a plain access line otherwise.
func (s *server) withLog(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.bootNonce + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		w.Header().Set("X-Stopify-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK // handler wrote nothing: net/http defaults the status
		}
		dur := time.Since(start)
		if s.logJSON {
			line, _ := json.Marshal(requestLog{
				Time:       start.UTC().Format(time.RFC3339Nano),
				RequestID:  id,
				Method:     r.Method,
				Path:       r.URL.Path,
				Guest:      r.URL.Query().Get("id"),
				Status:     sw.status,
				DurationMs: float64(dur) / float64(time.Millisecond),
				Bytes:      sw.bytes,
				Remote:     r.RemoteAddr,
			})
			log.Printf("%s", line)
		} else {
			log.Printf("stopifyd: %s %s %s %d %db %s", id, r.Method, r.URL.RequestURI(), sw.status, sw.bytes, dur.Round(time.Microsecond))
		}
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
