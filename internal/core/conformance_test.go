package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/langs"
	"repro/internal/parser"
	"repro/internal/snapshot"
	"repro/internal/supervisor"
)

// The conformance matrix (DESIGN_interp.md, "The conformance matrix"): one
// corpus, one driver, one table. Every program has a committed expected
// output — what JavaScript prints — and every cell of the table runs the
// program one way and is compared with that file, never with another cell.
//
// A cell's subtest name is the tuple that replays it: quanta count
// statements and the clock is virtual, so
//
//	go test ./internal/core -run 'TestConformance/edge/computed-key-compound/javascript/bytecode/checked/q25/hop'
//
// re-executes exactly the run that failed.

// The bounding rule: which quanta a program is preempted at follows from
// the statements its calm run executes under the same profile, so the
// product is bounded by what the code observes and no knob selects it. A
// quantum applies while the calm run is longer than the quantum (it pauses
// at least once) and no longer than the limit below; continuation
// strategies other than checked, the reference engine under preemption and
// the cross-engine restore apply up to quantum1Limit (program.cells has the
// rest). Measured on this corpus: 253 programs, 12 560 cells, 36 s on two
// cores (-short: 2 052 cells, 8 s).
const (
	quantum1Limit    = 3_000
	quantum25Limit   = 60_000
	quantum2000Limit = 1_500_000

	// A hop cell restores from a snapshot at every pause until the blobs it
	// has made add up to hopBytes, and resumes in place from there: what a hop
	// costs follows its blob, and a guest ten thousand frames deep, or one
	// paused three thousand times, is not restored more often for it.
	hopBytes = 256 << 10

	// A preempted run may execute preemptedFactor times its calm run's
	// statements and preemptedSlack more; what needs more does not finish. (At
	// quantum 2000 a preemption costs 1.1 to 2.5 times the statements, at
	// quantum 1 a few hundred statements each, on at most quantum1Limit.)
	preemptedFactor = 4
	preemptedSlack  = 1_000_000

	// stepBudget bounds every run; neverBudget the runs of a program whose
	// expected output ends in "!does not finish".
	stepBudget  = 20_000_000
	neverBudget = 100_000
)

// program is one row of the corpus.
type program struct {
	name  string    // <group>/<name>, the first two levels of a cell's subtest name
	src   string    // the JavaScript
	want  string    // the .out file: what JavaScript prints, an uncaught error as a last line "!Name: message"
	needs core.Opts // the least Fig 5 sub-language the program inhabits
	known []known
	// fuzzed marks a fuzz input, which has no expected output: its cells are
	// compared with one another.
	fuzzed bool

	mu       sync.Mutex
	outcomes map[string]outcome
}

// known is one `// known: <tags> prints "<text>" — <why>` or `// known:
// <tags> pinned — <why>` header: in the cells whose tags it names, the
// program prints text where JavaScript prints the .out (or cannot be
// snapshotted), for the reason given. Such a cell passes with a report; one
// that prints JavaScript's answer after all fails, so a fixed gap cannot
// keep its annotation.
type known struct {
	tags   []string // all must hold; "!tag" must not; none: every cell
	prints string
	pinned bool
	why    string
}

// profile is one Fig 5 sub-language by name.
type profile struct {
	name string
	opts core.Opts
}

// cell is one way of running a program.
type cell struct {
	profile profile // zero: raw, the program as written
	engine  string  // core.BackendTree, core.BackendBytecode or "supervisor"
	cont    string  // continuation strategy
	quantum uint64  // statements between pauses; 0: never preempted
	// mode says what happens at a pause — "resume" in place, "hop" through
	// a snapshot into a fresh realm, "xhop" the same onto the other engine —
	// and, for a calm cell, where the compile came from: "cold" or "cached".
	mode string
}

func (c cell) raw() bool { return c.profile.name == "" }

func (c cell) String() string {
	switch {
	case c.raw():
		return "raw/" + c.engine
	case c.engine == "supervisor":
		return c.profile.name + "/supervisor"
	case c.quantum == 0:
		return fmt.Sprintf("%s/%s/%s/calm/%s", c.profile.name, c.engine, c.cont, c.mode)
	}
	return fmt.Sprintf("%s/%s/%s/q%d/%s", c.profile.name, c.engine, c.cont, c.quantum, c.mode)
}

// has reports whether tag describes c: a segment of its name, "stopified",
// "preempted", or an option of its profile as a needs: line spells it.
func (c cell) has(tag string) bool {
	o := c.profile.opts
	switch tag {
	case "stopified":
		return !c.raw()
	case "preempted":
		return c.quantum > 0 || c.engine == "supervisor"
	case "getters":
		return o.Getters
	case "eval":
		return o.Eval
	case "args=" + o.Args, "implicits=" + o.Implicits:
		return !c.raw()
	}
	for _, seg := range strings.Split(c.String(), "/") {
		if seg == tag {
			return true
		}
	}
	return false
}

func (k known) covers(c cell) bool {
	for _, tag := range k.tags {
		if neg := strings.HasPrefix(tag, "!"); c.has(strings.TrimPrefix(tag, "!")) == neg {
			return false
		}
	}
	return true
}

// outcome is what a cell observed.
type outcome struct {
	text   string // console output, then "!<error>\n" if the run ended in one
	steps  uint64 // statements executed
	pauses int
	pinned string // the snapshot.PinError kind that kept a hop in place
	// blobBytes adds up the snapshots a hop cell made.
	blobBytes int
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

// config is the host side of every run these tests make: the named engine,
// a virtual clock, a fixed seed, a step budget.
func config(engine string, out io.Writer, budget uint64) core.RunConfig {
	return core.RunConfig{Backend: engine, Clock: eventloop.NewVirtualClock(), Out: out, Seed: 1, MaxSteps: budget}
}

// start builds a realm for c whose quantum hook pauses it; nothing runs
// until pump.
func start(c *core.Compiled, cfg core.RunConfig) (*core.AsyncRun, error) {
	run, err := c.NewRun(cfg)
	if err == nil {
		run.SetOnQuantum(func() { run.Pause(nil) })
	}
	return run, err
}

// pump starts or resumes run with quantum statements to its next pause (0:
// none) and turns its event loop until it pauses, fails, or finishes with
// nothing left queued — timers drain as on a page. It reports whether run is
// paused.
func pump(run *core.AsyncRun, quantum uint64) bool {
	run.ArmQuantum(quantum)
	if run.Paused() {
		run.Resume()
	} else if !run.Finished() {
		run.Run(nil)
	}
	for !run.Paused() {
		if _, err := run.Result(); err != nil || !run.Loop.RunOne() {
			return false
		}
	}
	return true
}

// hop snapshots a paused run and restores the blob into a fresh realm under
// cfg, replaying the output so far into cfg.Out. It returns the blob's size.
func hop(run *core.AsyncRun, cfg core.RunConfig) (*core.AsyncRun, int, error) {
	blob, err := run.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	next, err := core.RestoreWith(cfg, blob, core.RestoreOptions{ReplayOutput: true})
	if err == nil {
		next.SetOnQuantum(func() { next.Pause(nil) })
	}
	return next, len(blob), err
}

// parkedOnce compiles src, runs it on engine from to its first pause at
// quantum, moves it through a snapshot onto engine to and lets it finish
// there. It returns what the guest had printed at the park — which is how a
// test knows where the park landed — and fails the test unless the guest
// then prints all that its calm run does.
func parkedOnce(t *testing.T, src string, opts core.Opts, from, to string, quantum uint64) (atPark string) {
	t.Helper()
	c, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	calm, buf := mustStart(t, c, to)
	pump(calm, 0)
	want := transcript(calm, buf)
	run, buf := mustStart(t, c, from)
	if !pump(run, quantum) {
		t.Fatalf("finished before quantum %d", quantum)
	}
	atPark, buf = buf.String(), &bytes.Buffer{}
	if run, _, err = hop(run, config(to, buf, stepBudget)); err != nil {
		t.Fatalf("hop at %d: %v", quantum, err)
	}
	pump(run, 0)
	if got := transcript(run, buf); got != want {
		t.Fatalf("parked on %s at %d and restored on %s: printed %q, calm %q", from, quantum, to, got, want)
	}
	return atPark
}

func mustStart(t testing.TB, c *core.Compiled, engine string) (*core.AsyncRun, *bytes.Buffer) {
	t.Helper()
	buf := &bytes.Buffer{}
	run, err := start(c, config(engine, buf, stepBudget))
	if err != nil {
		t.Fatal(err)
	}
	return run, buf
}

// transcript is what a run printed and how it ended.
func transcript(run *core.AsyncRun, buf *bytes.Buffer) string {
	_, err := run.Result()
	return buf.String() + errText(err)
}

func errText(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, interp.ErrStepBudget):
		return "!does not finish\n"
	}
	return "!" + err.Error() + "\n"
}

// drive runs p the way c says and reports what it observed. It is the only
// test code that builds a realm with a quantum hook, pumps an event loop,
// snapshots or restores; the tests whose subject is a parked guest itself
// use its parts (start, pump, hop, transcript).
func drive(p *program, c cell) (o outcome) {
	switch {
	case c.raw():
		// An uncaught exception in a timer callback crashes the page.
		defer func() {
			if r := recover(); r != nil {
				o.text += fmt.Sprintf("!%v\n", r)
			}
		}()
		var buf bytes.Buffer
		_, err := core.RunRaw(p.src, p.config(c.engine, &buf))
		return outcome{text: buf.String() + errText(err)}
	case c.engine == "supervisor":
		return driveSupervisor(p, c)
	}
	opts := c.profile.opts
	opts.Cont = c.cont
	compile := core.Compile
	if c.mode == "cached" {
		compile = core.CompileCached
	}
	compiled, err := compile(p.src, opts)
	if err == nil {
		err = core.CheckANF(p.src, opts)
	}
	if err != nil {
		return outcome{text: errText(err)}
	}
	if c.mode == "cached" {
		if again, _ := compile(p.src, opts); again != compiled {
			return outcome{text: "!CompileCached compiled the same text under the same options twice\n"}
		}
	}
	budget := p.config("", nil).MaxSteps
	if c.quantum > 0 {
		budget = min(budget, preemptedFactor*p.steps(c.profile)+preemptedSlack)
	}
	buf := &bytes.Buffer{}
	run, err := start(compiled, config(c.engine, buf, budget))
	if err != nil {
		return outcome{text: errText(err)}
	}
	engine, before := c.engine, run.Steps()
	for pump(run, c.quantum) {
		o.pauses++
		if c.mode == "resume" || o.blobBytes > hopBytes {
			continue
		}
		if c.mode == "xhop" {
			engine = bothEngines[1-slices.Index(bothEngines, engine)]
		}
		nextBuf := &bytes.Buffer{}
		next, n, err := hop(run, config(engine, nextBuf, budget))
		o.blobBytes += n
		if perr := (*snapshot.PinError)(nil); errors.As(err, &perr) {
			o.pinned = perr.Kind // stays resident: carries on in place
			continue
		}
		if err != nil {
			return outcome{text: buf.String() + fmt.Sprintf("!hop %d: %v\n", o.pauses, err)}
		}
		run, buf = next, nextBuf
	}
	o.text, o.steps = transcript(run, buf), run.Steps()-before
	return o
}

// driveSupervisor is the leg through a real scheduler: two guests of p on
// one worker that may keep one realm resident. The first is paused after
// its first turn, so the second's turns park it through the snapshot codec;
// it is resumed, restored on touch, once the second has finished. Both are
// sliced at the largest quantum the bounding rule allows the profile.
func driveSupervisor(p *program, c cell) outcome {
	quantum := uint64(2000)
	if q := quanta(p.steps(c.profile)); len(q) > 0 {
		quantum = q[0]
	}
	s := supervisor.New(supervisor.Options{Workers: 1, QuantumSteps: quantum, MaxResident: 1, TraceCapacity: -1})
	defer s.Close()
	submit := supervisor.SubmitOptions{Source: p.src, Compile: c.profile.opts, Policy: &supervisor.Policy{MaxTotalSteps: p.config("", nil).MaxSteps}}
	first, err := s.Submit(submit)
	if err != nil {
		return outcome{text: errText(err)}
	}
	for first.Inspect().Quanta == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	first.Pause()
	second, err := s.Submit(submit)
	if err != nil {
		return outcome{text: errText(err)}
	}
	b := second.Wait()
	first.Resume()
	a := first.Wait()
	o := outcome{text: a.Output + errText(a.Err), steps: a.Steps, pauses: a.Preemptions + b.Preemptions}
	// Two guests stopped by their step budget need not have got equally far.
	never := func(text string) bool { return strings.HasSuffix(text, "!does not finish\n") }
	if other := b.Output + errText(b.Err); other != o.text && !(never(other) && never(o.text)) {
		o.text += "!the unparked twin printed " + strconv.Quote(other) + "\n"
	}
	return o
}

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

// base is what every profile is laid over: the defaults, with the yield
// timer off — pauses come from the quantum, which counts statements, and
// from nothing that reads a clock.
func base() core.Opts {
	o := core.Defaults()
	o.YieldIntervalMs = 0
	return o
}

var (
	corpusOnce sync.Once
	corpusAll  []*program
	corpusErr  error
)

// corpus is the one loader: testdata/conformance/<group>/<name>.js with its
// .out beside it, then the programs that live elsewhere — internal/langs'
// suites, the Octane- and Kraken-likes, the literals in examples/*/main.go —
// whose .out files are under testdata/conformance/{langs,examples} or, for
// the benchmark's 24 kernels, benchmark/testdata/golden.
func corpus(t testing.TB) []*program {
	t.Helper()
	corpusOnce.Do(func() { corpusAll, corpusErr = loadCorpus() })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusAll
}

const conformanceDir = "testdata/conformance"

func loadCorpus() ([]*program, error) {
	var all []*program
	files, err := filepath.Glob(conformanceDir + "/*/*.js")
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no programs under %s: %v", conformanceDir, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(conformanceDir, strings.TrimSuffix(f, ".js"))
		p := &program{name: filepath.ToSlash(rel), src: string(src), needs: base()}
		if err := p.annotate(p.src); err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		all = append(all, p)
	}
	elsewhere := func(name, src string, needs core.Opts) {
		all = append(all, &program{name: name, src: src, needs: needs})
	}
	for _, prof := range langs.All() {
		for _, b := range prof.Benchmarks {
			elsewhere("langs/"+prof.Name+"."+b.Name, b.Source, prof.Opts(base()))
		}
	}
	js := langs.JavaScript().Opts(base())
	for _, b := range langs.OctaneLike() {
		elsewhere("langs/octane."+b.Name, b.Source, js)
	}
	for _, b := range langs.KrakenLike() {
		elsewhere("langs/kraken."+b.Name, b.Source, js)
	}
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(mains) == 0 {
		return nil, fmt.Errorf("examples/ not found: %v", err)
	}
	// Any backquoted literal of an example that parses as a nonempty program,
	// numbered among those: a format string added to an example renames no
	// expected output.
	literal := regexp.MustCompile("(?s)`[^`]*`")
	for _, f := range mains {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		dir := filepath.Base(filepath.Dir(f))
		n := 0
		for _, m := range literal.FindAllString(string(data), -1) {
			src := m[1 : len(m)-1]
			if prog, err := parser.Parse(src); err == nil && len(prog.Body) > 0 {
				elsewhere(fmt.Sprintf("examples/%s.%d", dir, n), src, base())
				n++
			}
		}
	}
	for _, p := range all {
		p.outcomes = map[string]outcome{}
		want, err := os.ReadFile(filepath.Join(conformanceDir, p.name+".out"))
		if errors.Is(err, os.ErrNotExist) {
			want, err = os.ReadFile("../../benchmark/testdata/golden/" + strings.TrimPrefix(p.name, "langs/") + ".txt")
		}
		if err != nil {
			return nil, fmt.Errorf("%s has no expected output: %v", p.name, err)
		}
		p.want = string(want)
		// A program that lives elsewhere keeps its known: lines in a file of its own.
		if notes, err := os.ReadFile(filepath.Join(conformanceDir, p.name+".known")); err == nil {
			if err := p.annotate(string(notes)); err != nil {
				return nil, fmt.Errorf("%s.known: %v", p.name, err)
			}
		}
	}
	return all, nil
}

var knownLine = regexp.MustCompile(`^([^"]*?) ?(?:prints ("(?:[^"\\]|\\.)*")|(pinned)) — (.+)$`)

// annotate reads the "// needs:" and "// known:" lines among the comment
// lines text starts with.
func (p *program) annotate(text string) error {
	for _, line := range strings.Split(text, "\n") {
		line, ok := strings.CutPrefix(line, "// ")
		if !ok {
			return nil
		}
		switch key, val, _ := strings.Cut(line, ": "); key {
		case "needs":
			for _, f := range strings.Fields(val) {
				switch k, v, _ := strings.Cut(f, "="); k {
				case "args":
					p.needs.Args = v
				case "implicits":
					p.needs.Implicits = v
				case "getters":
					p.needs.Getters = true
				case "eval":
					p.needs.Eval = true
				default:
					return fmt.Errorf("needs: %q names no sub-language column", f)
				}
			}
			if _, err := core.Compile("", p.needs); err != nil {
				return err
			}
		case "known":
			m := knownLine.FindStringSubmatch(val)
			if m == nil {
				return fmt.Errorf("malformed known: line %q", val)
			}
			k := known{tags: strings.Fields(m[1]), pinned: m[3] != "", why: m[4]}
			if len(k.tags) == 1 && k.tags[0] == "*" {
				k.tags = nil
			}
			if !k.pinned {
				var err error
				if k.prints, err = strconv.Unquote(m[2]); err != nil {
					return fmt.Errorf("known: %s: %v", m[2], err)
				}
			}
			p.known = append(p.known, k)
		}
	}
	return nil
}

var (
	implicitsRank = map[string]int{"none": 0, "plus": 1, "full": 2}
	argsRank      = map[string]int{"none": 0, "varargs": 1, "mixed": 2, "full": 3}
)

// within reports whether sub-language a is contained in b, column by column.
func within(a, b core.Opts) bool {
	return implicitsRank[a.Implicits] <= implicitsRank[b.Implicits] && argsRank[a.Args] <= argsRank[b.Args] &&
		(!a.Getters || b.Getters) && (!a.Eval || b.Eval)
}

// profiles is the sub-language p declares, then every internal/langs profile
// that contains it, one per distinct option set, JavaScript's last.
func (p *program) profiles() []profile {
	out := []profile{{"declared", p.needs}}
	all := langs.All()
	for i, l := range all {
		if l.Name == "javascript" { // Pyret follows it in the paper's order
			all[i], all[len(all)-1] = all[len(all)-1], l
		}
	}
next:
	for _, l := range all {
		opts := l.Opts(base())
		if !within(p.needs, opts) {
			continue
		}
		for _, have := range out {
			if have.opts == opts {
				continue next
			}
		}
		out = append(out, profile{l.Name, opts})
	}
	return out
}

// config is config for a run of p: a program JavaScript never finishes is
// stopped after neverBudget statements, and a fuzz input — which loops for
// ever routinely — sooner, on a shallow engine stack, so that generated
// runaway recursion throws RangeError long before the native stack is at
// risk, and under a memory budget: a string doubled in a loop reaches the
// engine's 1 GiB limit inside the step budget, which takes one input past
// the fuzzer's hang detector.
func (p *program) config(backend string, out io.Writer) core.RunConfig {
	switch {
	case p.fuzzed:
		cfg := config(backend, out, neverBudget/2)
		cfg.Engine, cfg.MemBudgetBytes = &engine.Profile{Name: "shallow", MaxStack: 2000}, 64<<20
		return cfg
	case strings.HasSuffix(p.want, "!does not finish\n"):
		return config(backend, out, neverBudget)
	}
	return config(backend, out, stepBudget)
}

// inline is a program a test states in place, with what it must print.
func inline(name, src, want string, needs core.Opts) *program {
	return &program{name: name, src: src, want: want, needs: needs, outcomes: map[string]outcome{}}
}

// hold fails t for each of cells in which p does not print what it must.
func (p *program) hold(t *testing.T, cells ...cell) {
	t.Helper()
	for _, c := range cells {
		if fail, _ := p.verdict(c); fail != "" {
			t.Errorf("%s/%s: %s", p.name, c, fail)
		}
	}
}

// corpusProgram is the row of that name.
func corpusProgram(t testing.TB, name string) *program {
	t.Helper()
	for _, p := range corpus(t) {
		if p.name == name {
			return p
		}
	}
	t.Fatalf("no program %s under %s", name, conformanceDir)
	return nil
}

// outcome is drive(p, c), run once.
func (p *program) outcome(c cell) outcome {
	key := c.String()
	p.mu.Lock()
	o, ok := p.outcomes[key]
	p.mu.Unlock()
	if !ok {
		o = drive(p, c)
		p.mu.Lock()
		p.outcomes[key] = o
		p.mu.Unlock()
	}
	return o
}

// steps is the statement count the bounding rule reads: p's calm run under
// prof on the serving engine.
func (p *program) steps(prof profile) uint64 {
	return p.outcome(cell{profile: prof, engine: core.BackendBytecode, cont: "checked", mode: "cold"}).steps
}

// quanta lists the quanta the bounding rule allows a calm run of steps
// statements, largest first.
func quanta(steps uint64) []uint64 {
	var out []uint64
	for _, q := range []struct{ quantum, limit uint64 }{{2000, quantum2000Limit}, {25, quantum25Limit}, {1, quantum1Limit}} {
		if steps > q.quantum && steps <= q.limit {
			out = append(out, q.quantum)
		}
	}
	return out
}

// cells is p's part of the table. Raw on both engines; then under each
// profile the calm run on the serving engine, whose statement count decides
// the rest: the quanta (above), and how much of the table a profile that is
// neither the declared nor the widest gets once the program is past
// quantum1Limit — its smallest quantum, resumed in place, and past
// quantum25Limit nothing but the calm run. The reference engine runs every
// profile of a program that small, the declared profile of any program, and
// the widest up to quantum25Limit. The memo and the supervisor are one cell
// each, under the declared profile. -short keeps the calm run and quantum
// 2000 under the declared and the widest profile, restoring from snapshots
// under the declared one.
func (p *program) cells() []cell {
	tree, serving := core.BackendTree, core.BackendBytecode
	cells := []cell{{engine: tree}, {engine: serving}}
	profiles := p.profiles()
	for i, prof := range profiles {
		add := func(engine, cont string, quantum uint64, mode string) {
			cells = append(cells, cell{prof, engine, cont, quantum, mode})
		}
		declared, widest := i == 0, i == len(profiles)-1
		if testing.Short() && !declared && !widest {
			continue
		}
		steps := p.steps(prof)
		small := steps <= quantum1Limit && !testing.Short()
		add(serving, "checked", 0, "cold")
		if declared || small || widest && steps <= quantum25Limit {
			add(tree, "checked", 0, "cold")
		}
		if declared {
			add(serving, "checked", 0, "cached")
			// The supervisor's clock is the wall's: what a guest that sets
			// timers prints, and in which order, is not the program's alone.
			if !strings.Contains(p.src, "setTimeout") && !testing.Short() {
				cells = append(cells, cell{profile: prof, engine: "supervisor"})
			}
		}
		qs := quanta(steps)
		if testing.Short() {
			qs = slices.DeleteFunc(qs, func(q uint64) bool { return q != 2000 })
		}
		if !declared && !widest && !small {
			if len(qs) > 0 && steps <= quantum25Limit {
				add(serving, "checked", qs[len(qs)-1], "resume")
			}
			continue
		}
		for _, q := range qs {
			add(serving, "checked", q, "resume")
			if declared || !testing.Short() {
				add(serving, "checked", q, "hop")
			}
			if !small {
				continue
			}
			add(tree, "checked", q, "resume")
			add(tree, "checked", q, "hop")
			if declared || widest {
				add(serving, "checked", q, "xhop")
				for _, cont := range []string{"exceptional", "eager"} {
					add(serving, cont, q, "resume")
					add(serving, cont, q, "hop")
				}
			}
		}
	}
	return cells
}

// verdict holds c's outcome to p's expectation: "" when it passes, with
// report saying why a known row was let through.
func (p *program) verdict(c cell) (fail, report string) {
	o := p.outcome(c)
	agrees := o.text == p.want
	if body, never := strings.CutSuffix(p.want, "!does not finish\n"); never {
		// Whatever it printed before the budget ended it is a prefix of
		// the expected lines repeated for ever.
		printed, ended := strings.CutSuffix(o.text, "!does not finish\n")
		agrees = ended && (printed == "" || body != "" && strings.HasPrefix(strings.Repeat(body, len(printed)/len(body)+1), printed))
	}
	// Whether a hop may pin the guest resident, then what the cell may print.
	var pin *known
	for i, k := range p.known {
		if k.pinned && k.covers(c) && (c.mode == "hop" || c.mode == "xhop") {
			pin = &p.known[i]
		}
	}
	switch {
	case pin == nil && o.pinned != "":
		return fmt.Sprintf("pinned (%s) with no known: line saying so; printed %q", o.pinned, o.text), ""
	case o.pinned != "":
		// Which pauses find the obstruction depends on where they land, so a
		// pinned line permits; TestConformance holds the row to pinning somewhere.
		report = fmt.Sprintf("pinned (%s): %s", o.pinned, pin.why)
	}
	for _, k := range p.known {
		switch {
		case k.pinned || !k.covers(c):
			continue
		case agrees:
			return fmt.Sprintf("unexpected pass: known to print %q (%s), printed JavaScript's %q: delete the known: line", k.prints, k.why, p.want), ""
		case o.text != k.prints:
			return fmt.Sprintf("printed %q, known to print %q (%s), JavaScript prints %q", o.text, k.prints, k.why, p.want), ""
		}
		return "", "known: " + k.why
	}
	if !agrees {
		return fmt.Sprintf("printed %q, want %q", o.text, p.want), ""
	}
	return "", report
}

// TestConformance is the matrix: every program of the corpus, raw and
// stopified under the sub-language it declares and every wider one up to
// JavaScript's, on both engines, under every continuation strategy,
// unpreempted and preempted at every quantum the bounding rule allows,
// resumed in place, restored from a snapshot at every pause and restored on
// the other engine, compiled cold and from the memo, and through a
// one-worker supervisor with one resident realm — each cell against the
// program's .out.
func TestConformance(t *testing.T) {
	var mu sync.Mutex
	var programs, cells, knownCells, pinnedCells int
	knownRows := map[string]bool{}
	t.Cleanup(func() {
		t.Logf("conformance: %d programs, %d cells, %d known rows (%d cells), %d pinned cells", programs, cells, len(knownRows), knownCells, pinnedCells)
	})
	for _, p := range corpus(t) {
		programs++
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			plan := p.cells()
			ran, pinned := 0, 0
			for _, c := range plan {
				t.Run(c.String(), func(t *testing.T) {
					fail, report := p.verdict(c)
					mu.Lock()
					defer mu.Unlock()
					cells++
					ran++
					if p.outcome(c).pinned != "" {
						pinnedCells++
						pinned++
					}
					switch {
					case fail != "":
						t.Error(fail)
					case strings.HasPrefix(report, "known"):
						knownCells++
						knownRows[p.name] = true
						t.Log(report)
					case report != "":
						t.Log(report)
					}
				})
			}
			for _, k := range p.known {
				if k.pinned && pinned == 0 && ran == len(plan) && !testing.Short() {
					t.Errorf("unexpected pass: known to pin (%s), and every hop of every cell went through: delete the known: line", k.why)
				}
			}
		})
	}
}
