package supervisor

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promValidate is a promtool-check-metrics-style validator for the text
// exposition format (0.0.4): metric names are legal, every sample's family
// has a preceding # TYPE, counters follow the _total convention, values
// parse, and no (name, labelset) repeats within a scrape.
func promValidate(t *testing.T, scrape []byte) {
	t.Helper()
	var (
		nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
		typed    = map[string]string{} // family -> counter|gauge|summary
		seen     = map[string]bool{}   // name{labels} uniqueness
	)
	sc := bufio.NewScanner(bytes.NewReader(scrape))
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			parts := strings.Fields(text)
			if len(parts) != 4 || !nameRe.MatchString(parts[2]) {
				t.Errorf("line %d: malformed TYPE: %q", line, text)
				continue
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Errorf("line %d: unknown metric type %q", line, parts[3])
			}
			if _, dup := typed[parts[2]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", line, parts[2])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // HELP or comment
		}
		m := sampleRe.FindStringSubmatch(text)
		if m == nil {
			t.Errorf("line %d: unparseable sample line: %q", line, text)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: value %q does not parse: %v", line, value, err)
		}
		key := name + labels
		if seen[key] {
			t.Errorf("line %d: duplicate sample %s", line, key)
		}
		seen[key] = true

		// Resolve the family: summaries expose name{quantile}, name_sum,
		// name_count under one TYPE summary declaration.
		family := name
		if typed[family] == "" {
			if f := strings.TrimSuffix(name, "_sum"); typed[f] == "summary" {
				family = f
			} else if f := strings.TrimSuffix(name, "_count"); typed[f] == "summary" {
				family = f
			}
		}
		kind := typed[family]
		if kind == "" {
			t.Errorf("line %d: sample %s has no preceding # TYPE", line, name)
			continue
		}
		if kind == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("line %d: counter %s does not end in _total", line, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("scrape contained no samples")
	}
}

// TestWritePromValidScrape renders a real supervisor's metrics — after a
// workload that populates completions, kills, preemptions, and latency
// digests — and validates the scrape line by line.
func TestWritePromValidScrape(t *testing.T) {
	s := New(Options{Workers: 2, QuantumSteps: 300})
	defer s.Close()
	before := s.Metrics()
	for i := 0; i < 3; i++ {
		g, err := s.Submit(SubmitOptions{Source: guestSrc(i % 2)}) // the third repeats the first
		if err != nil {
			t.Fatal(err)
		}
		g.Wait()
	}
	// One external kill so a cause-labeled kill counter is nonzero.
	hostile, err := s.Submit(SubmitOptions{Source: `while (true) {}`})
	if err != nil {
		t.Fatal(err)
	}
	hostile.Kill(nil)
	hostile.Wait()

	m := s.Metrics()
	var buf bytes.Buffer
	WriteProm(&buf, m, s.Windows())
	promValidate(t, buf.Bytes())

	scrape := buf.String()
	wantLine := fmt.Sprintf("stopify_guests_completed_total %d", m.Completed)
	if !strings.Contains(scrape, wantLine) {
		t.Errorf("scrape missing %q", wantLine)
	}
	if !strings.Contains(scrape, "stopify_sched_latency_ms{quantile=\"0.99\"}") {
		t.Error("scrape missing sched-latency P99 quantile")
	}
	if !strings.Contains(scrape, `stopify_kills_total{cause="explicit"} 1`) {
		t.Error("scrape missing the explicit-kill cause counter")
	}
	if m.Completed != 3 {
		t.Errorf("workload completed %d guests, want 3", m.Completed)
	}
	// The compile counters are process-wide, so only their movement is
	// this test's: the repeated source hit, and the scrape says so.
	if m.Compile.MemoHits <= before.Compile.MemoHits || m.Compile.MemoMisses <= before.Compile.MemoMisses {
		t.Errorf("compile memo hits %d→%d, misses %d→%d: a repeated and a new source moved neither",
			before.Compile.MemoHits, m.Compile.MemoHits, before.Compile.MemoMisses, m.Compile.MemoMisses)
	}
	if m.Compile.PreludeCompiles == 0 {
		t.Error("prelude_compiles is zero after guests compiled")
	}
	for _, line := range []string{
		fmt.Sprintf("stopify_compile_memo_hits_total %d", m.Compile.MemoHits),
		fmt.Sprintf("stopify_compile_memo_misses_total %d", m.Compile.MemoMisses),
		fmt.Sprintf("stopify_compile_memo_evictions_total %d", m.Compile.MemoEvictions),
		fmt.Sprintf("stopify_prelude_compiles_total %d", m.Compile.PreludeCompiles),
	} {
		if !strings.Contains(scrape, line) {
			t.Errorf("scrape missing %q", line)
		}
	}
}

// TestWritePromWindowGauges: the newest *complete* window — not the
// still-filling last bucket — backs the windowed gauges, and with fewer than
// two windows they are omitted rather than rendered as misleading zeros.
func TestWritePromWindowGauges(t *testing.T) {
	wins := []WindowSummary{
		{StartMs: 0, WidthMs: 1000, Turns: 100, P50: 1, P99: 2},
		{StartMs: 1000, WidthMs: 1000, Turns: 200, P50: 3, P99: 4},
		{StartMs: 2000, WidthMs: 1000, Turns: 5, P50: 9, P99: 9}, // still filling
	}
	var buf bytes.Buffer
	WriteProm(&buf, Metrics{}, wins)
	promValidate(t, buf.Bytes())
	out := buf.String()
	if !strings.Contains(out, "stopify_window_sched_latency_p99_ms 4") {
		t.Errorf("window P99 gauge not taken from newest complete window:\n%s", out)
	}
	if !strings.Contains(out, "stopify_window_turns 200") {
		t.Errorf("window turns gauge not taken from newest complete window:\n%s", out)
	}

	buf.Reset()
	WriteProm(&buf, Metrics{}, wins[:1])
	if strings.Contains(buf.String(), "stopify_window_") {
		t.Error("window gauges rendered with no complete window available")
	}
	promValidate(t, buf.Bytes())
}

// TestPromCoversMetrics holds promFamilies to the Metrics struct: every
// numeric field, at any depth, moves the scrape when it alone is set, so a
// metric added to the struct (and so to the JSON) cannot be missing from
// Prometheus. What is deliberately not a series of its own is named here.
func TestPromCoversMetrics(t *testing.T) {
	notExposed := map[string]string{
		"ParkPins":           "the stopify_park_pins_total{reason} samples sum to it",
		"TurnDuration.Max":   "summaries carry quantiles, sum and count; only the scheduling maximum has a gauge",
		"RestoreLatency.Max": "likewise",
	}
	render := func(m Metrics) string {
		var buf bytes.Buffer
		WriteProm(&buf, m, nil)
		return buf.String()
	}
	zero := render(Metrics{})
	checked := 0
	var walk func(path string, v reflect.Value, m *Metrics)
	walk = func(path string, v reflect.Value, m *Metrics) {
		for i := 0; i < v.NumField(); i++ {
			name, f := path+v.Type().Field(i).Name, v.Field(i)
			switch f.Kind() {
			case reflect.Struct:
				walk(name+".", f, m)
				continue
			case reflect.Uint64:
				f.SetUint(7)
			case reflect.Int:
				f.SetInt(7)
			case reflect.Float64:
				f.SetFloat(7)
			default:
				continue // strings and the by-reason map: not numeric fields
			}
			checked++
			if _, skip := notExposed[name]; !skip && render(*m) == zero {
				t.Errorf("Metrics.%s does not reach the Prometheus scrape: add it to promFamilies", name)
			} else if skip && render(*m) != zero {
				t.Errorf("Metrics.%s is listed as not exposed, but moves the scrape", name)
			}
			f.SetZero()
		}
	}
	var m Metrics
	walk("", reflect.ValueOf(&m).Elem(), &m)
	if checked < 40 {
		t.Fatalf("walked only %d numeric fields of Metrics", checked)
	}
}

// TestMetricsTableMatchesExposition is the golden for the observable
// surface: the metrics table in DESIGN_supervisor.md ("Prometheus
// exposition") names every Prometheus family and every /metrics JSON key,
// and this test holds the table and the two encoders to each other — a name
// in the table that is not emitted fails, and so does an emitted name the
// table does not list. Retired names are pinned absent.
func TestMetricsTableMatchesExposition(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN_supervisor.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "### Prometheus exposition")
	if !ok {
		t.Fatal("DESIGN_supervisor.md has no Prometheus exposition section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	var (
		tick    = regexp.MustCompile("`([^`]+)`")
		promDoc = map[string]bool{}
		jsonDoc = map[string]bool{} // "key" or "key.subkey"
	)
	for _, row := range strings.Split(table, "\n") {
		cols := strings.Split(row, "|")
		if len(cols) < 5 || !strings.Contains(cols[1], "`stopify_") {
			continue
		}
		for _, m := range tick.FindAllStringSubmatch(cols[1], -1) {
			name, _, _ := strings.Cut(m[1], "{")
			promDoc[name] = true
		}
		for _, m := range tick.FindAllStringSubmatch(cols[2], -1) {
			jsonDoc[m[1]] = true
		}
	}
	if len(promDoc) < 25 {
		t.Fatalf("parsed only %d Prometheus names from the table: %v", len(promDoc), promDoc)
	}

	// A populated Metrics value, so omitempty keys and labelled series show.
	m := Metrics{LastFault: "x", LastFaultStack: "y", ParkPinsByReason: map[string]uint64{"eval": 1}}
	wins := []WindowSummary{{Turns: 1}, {Turns: 1}}
	var buf bytes.Buffer
	WriteProm(&buf, m, wins)
	promValidate(t, buf.Bytes())
	emitted := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			emitted[f[2]] = true
		}
	}
	for name := range promDoc {
		if !emitted[name] {
			t.Errorf("table lists %s; WriteProm does not emit it", name)
		}
	}
	for name := range emitted {
		if !promDoc[name] {
			t.Errorf("WriteProm emits %s; the table does not list it", name)
		}
	}

	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for path := range jsonDoc {
		top, sub, nested := strings.Cut(path, ".")
		listed[top] = true
		v, ok := keys[top]
		if obj, _ := v.(map[string]any); ok && nested {
			_, ok = obj[sub]
		}
		if !ok {
			t.Errorf("table lists JSON key %s; Metrics does not marshal it", path)
		}
	}
	for key := range keys {
		if !listed[key] {
			t.Errorf("Metrics marshals %q; the table does not list it", key)
		}
	}

	for _, gone := range []string{"stopify_steals_total", `"steals"`} {
		if strings.Contains(buf.String(), gone) || strings.Contains(string(raw), gone) {
			t.Errorf("%s is still exposed; the run queue has nothing to steal from", gone)
		}
	}
}
