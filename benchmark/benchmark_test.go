package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestMain(m *testing.M) {
	// CI runs the suite once per engine through STOPIFY_BACKEND; the
	// benchmark measures the library default whatever the environment says.
	hygiene()
	os.Exit(m.Run())
}

func TestFloor(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5, 1, 9, 2, 3, 100}, 2}, // mean of 1, 2, 3
		{[]float64{4, 2}, 3},               // fewer than three: what there is
		{[]float64{7}, 7},
	} {
		if got := floor(tc.in); got != tc.want {
			t.Errorf("floor(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(floor(nil)) {
		t.Error("floor of no samples should be NaN")
	}
	in := []float64{3, 1, 2}
	floor(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("floor reordered its input")
	}
}

func TestEpochs(t *testing.T) {
	for _, tc := range []struct {
		n, size int
		want    [][2]int
	}{
		{24, 6, [][2]int{{0, 6}, {6, 12}, {12, 18}, {18, 24}}},
		{12, 4, [][2]int{{0, 4}, {4, 8}, {8, 12}}},
		{13, 6, [][2]int{{0, 6}, {6, 13}}},           // a tail of one joins the last epoch
		{16, 6, [][2]int{{0, 6}, {6, 12}, {12, 16}}}, // a tail of four stands alone
		{3, 6, [][2]int{{0, 3}}},
		{0, 6, nil},
	} {
		got := epochs(tc.n, tc.size)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("epochs(%d, %d) = %v, want %v", tc.n, tc.size, got, tc.want)
		}
		total := 0
		for _, n := range epochSizes(got) {
			total += n
		}
		if total != tc.n {
			t.Errorf("epochs(%d, %d) cover %d guests", tc.n, tc.size, total)
		}
	}
}

func TestIQRShare(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	values := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(values), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if got, want := iqrShare([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// hotTexts opens a workload and returns every recurring program text of a
// round, in order.
func hotTexts(t *testing.T, w *workload, seed int64) []string {
	t.Helper()
	r, err := w.openSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	var texts []string
	switch r := r.(type) {
	case *kernelsRun:
		for _, p := range r.progs {
			texts = append(texts, p.src)
		}
	case *admitRun:
		for _, s := range r.slots {
			kind := "hot:"
			if s.unique {
				kind = "unique:"
			}
			texts = append(texts, kind+s.g.hot().src)
		}
	case *timesliceRun:
		for _, p := range r.progs {
			texts = append(texts, p.src)
		}
	case *migrateRun:
		for _, p := range r.progs {
			texts = append(texts, p.src)
		}
	}
	return texts
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := hotTexts(t, w, 7), hotTexts(t, w, 7), hotTexts(t, w, 8)
		if len(a) == 0 {
			t.Fatalf("%s: no program texts", w.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: another seed gave the same inputs", w.name)
		}
		// The seed picks literals and order, never the work: every seed has
		// the same texts up to their seven-digit literal.
		if blank(a) != blank(c) {
			t.Errorf("%s: seeds 7 and 8 differ in more than literals and order", w.name)
		}
	}
}

// blank replaces every digit run of literal width with a placeholder and
// sorts the texts, leaving what a seed must not change.
func blank(texts []string) string {
	out := make([]string, len(texts))
	for i, s := range texts {
		var b strings.Builder
		for j := 0; j < len(s); {
			k := j
			for k < len(s) && s[k] >= '0' && s[k] <= '9' {
				k++
			}
			if k-j == 7 {
				b.WriteString("#######")
				j = k
				continue
			}
			if k == j {
				k++
			}
			b.WriteString(s[j:k])
			j = k
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\x00")
}

func TestUniqueTextsNeverCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tp := range admitTemplates {
		g := tp.guest(newLiterals(rng))
		hot := g.hot()
		seen := map[string]bool{hot.src: true}
		for i := 0; i < 20000; i++ {
			p := g.unique()
			if seen[p.src] {
				t.Fatalf("%s: unique text %d repeats an earlier text", tp.name, i)
			}
			seen[p.src] = true
			if len(p.src) != len(hot.src) {
				t.Fatalf("%s: unique text is %d bytes, hot text %d", tp.name, len(p.src), len(hot.src))
			}
		}
	}
	// The walk through the unique range is a bijection.
	l := literals{base: 12345}
	lits := map[uint64]bool{}
	for n := uint64(1); n <= 100000; n++ {
		v := l.at(n)
		if v < uniqueLo || v >= uniqueLo+uniqueSpan || lits[v] {
			t.Fatalf("literal %d of text %d is out of range or repeated", v, n)
		}
		lits[v] = true
	}
}

func TestAdmitPlanShape(t *testing.T) {
	slots, probeSet := admitPlan(rand.New(rand.NewSource(1)))
	if len(slots) != admitSlots {
		t.Fatalf("%d slots, want %d", len(slots), admitSlots)
	}
	hot, unique := map[*guest]int{}, 0
	for _, s := range slots {
		if s.unique {
			unique++
		} else {
			hot[s.g]++
		}
	}
	if unique != admitSlots/2 || len(hot) != admitHot {
		t.Errorf("%d unique slots and %d hot sources, want %d and %d", unique, len(hot), admitSlots/2, admitHot)
	}
	perTemplate := map[string]int{}
	for _, g := range probeSet {
		perTemplate[g.name]++
	}
	for _, tp := range admitTemplates {
		if perTemplate[tp.name] != 4 {
			t.Errorf("probe set has %d guests of template %s, want 4", perTemplate[tp.name], tp.name)
		}
	}
}

// TestTemplateExpectations runs every generated guest raw, hot and unique:
// the expectations are computed in Go, so this is the interpreter agreeing
// with an independent implementation.
func TestTemplateExpectations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all := append(append([]template{lineTemplate}, admitTemplates...), sliceTemplates...)
	for _, tp := range all {
		g := tp.guest(newLiterals(rng))
		for _, p := range []program{g.hot(), g.unique()} {
			out, err := core.RunRaw(p.src, core.RunConfig{})
			if err != nil || out != p.want {
				t.Errorf("%s: got %q (err %v), want %q", tp.name, out, err, p.want)
			}
		}
	}
}

func TestGoldenOutputs(t *testing.T) {
	inCatalogue := map[kernelRef]bool{}
	for _, k := range kernelCatalogue {
		inCatalogue[k] = true
		src, _, err := kernelSource(k)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := goldenFS.ReadFile(goldenPath(k))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		out, err := core.RunRaw(src, core.RunConfig{})
		if err != nil || out != string(golden) {
			t.Errorf("%s: raw output differs from the golden file (err %v)", k, err)
		}
	}
	for _, k := range migrateCatalogue {
		if !inCatalogue[k] {
			t.Errorf("migrate kernel %s is not in the kernel catalogue", k)
		}
	}
	entries, err := goldenFS.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(kernelCatalogue) {
		t.Errorf("%d golden files for %d kernels", len(entries), len(kernelCatalogue))
	}
}

// TestExactCounters checks that the counters the layer table calls exact
// repeat: statements, preemptions, quanta and blob sizes of the same
// program are the same on every run.
func TestExactCounters(t *testing.T) {
	g := sliceTemplates[0].guest(newLiterals(rand.New(rand.NewSource(2))))
	p := g.hot()
	c, err := core.Compile(p.src, g.opts)
	if err != nil {
		t.Fatal(err)
	}
	sup := oneWorker()
	defer sup.Close()
	type counters struct {
		steps         uint64
		hops, blob    int
		quanta, preem int
	}
	var runs [2]counters
	for i := range runs {
		mg, err := migrate(c, migrateQuantum, nil, 0)
		if err != nil || mg.out != p.want {
			t.Fatalf("migrate: %q, %v", mg.out, err)
		}
		rec := &recorder{}
		h, ok := submit(sup, g, p, rec)
		if !ok {
			t.Fatal(rec.firstFailure)
		}
		res := h.finish(sup, rec)
		if rec.failed > 0 {
			t.Fatal(rec.firstFailure)
		}
		runs[i] = counters{mg.steps, mg.hops, mg.blobBytes, res.Quanta, res.Preemptions}
	}
	if runs[0] != runs[1] {
		t.Errorf("counters differ between two runs: %+v and %+v", runs[0], runs[1])
	}
	if runs[0].hops == 0 || runs[0].preem == 0 {
		t.Errorf("the guest never hopped or was never preempted: %+v", runs[0])
	}
}

// TestQuickSmoke is what -quick does, less the child processes: every
// workload runs two measured rounds, every output verifies, and the
// end-to-end metrics are positive numbers.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		r, err := w.openSeed(11)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := newTracer()
		p := measure(r, 2, time.Minute, tr)
		r.close()
		if p.rec.failed != 0 || p.rec.ops == 0 {
			t.Errorf("%s: %d of %d outputs wrong: %s", w.name, p.rec.failed, p.rec.ops, p.rec.firstFailure)
		}
		guestMs, guestsPerS, slowdown := p.rec.timings()
		for name, v := range map[string]float64{"guest_ms": guestMs, "guests_per_s": guestsPerS, "slowdown": slowdown} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
		// Spans nest: every child lies inside its parent, and the stack
		// is empty when the round is over.
		if len(tr.stack) != 0 || len(tr.spans) == 0 {
			t.Errorf("%s: %d spans, %d left open", w.name, len(tr.spans), len(tr.stack))
		}
		for _, s := range tr.spans {
			if s.parent >= 0 {
				if par := tr.spans[s.parent]; s.start < par.start || s.end > par.end {
					t.Errorf("%s: span %s escapes its parent %s", w.name, s.name, par.name)
				}
			}
		}
		for _, tm := range w.terms {
			if !listed(tm.metric) || (tm.times != "" && !listed(tm.times)) {
				t.Errorf("%s: reconciliation term %s is not a layer metric", w.name, tm)
			}
		}
		if !listed(w.path) {
			t.Errorf("%s: path %s is not a layer metric", w.name, w.path)
		}
		if n := len(r.probes()); n < 3 {
			t.Errorf("%s: %d probe guests", w.name, n)
		}
	}
}

func listed(name string) bool {
	for _, l := range layerMetrics {
		if l.name == name {
			return true
		}
	}
	return false
}

func TestColdStart(t *testing.T) {
	if err := coldStart(workloadByName("timeslice"), 4); err != nil {
		t.Fatal(err)
	}
}

func TestRoundsNeverBelowAFloorsNeed(t *testing.T) {
	for _, w := range workloads {
		if n := w.rounds(1); n < minSamples {
			t.Errorf("%s: %d rounds at one second", w.name, n)
		}
		if a, b := w.rounds(20), w.rounds(60); b <= a {
			t.Errorf("%s: %d rounds at 20 s, %d at 60 s", w.name, a, b)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d exist", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, have %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d exist", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if got := spec.EndToEnd[i]; got != (entry{Name: e.name, Unit: e.unit, Better: e.better, Bound: e.bound}) {
			t.Errorf("end-to-end metric %d: listed %+v, have %+v", i, got, e)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d layer metrics listed, %d exist", len(spec.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		if got := spec.PerLayer[i]; got != (entry{Name: l.name, Unit: l.unit, Better: l.better}) {
			t.Errorf("layer metric %d: listed %+v, have %+v", i, got, l)
		}
	}
}
