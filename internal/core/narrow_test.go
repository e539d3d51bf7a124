package core_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/interp"
	"repro/internal/langs"
)

// A compile instruments the sub-language its program uses, not all its
// options allow (DESIGN_interp.md, "What a program uses"): Compiled.Opts is
// the declared options narrowed by what the parser saw the source spell.

// TestEffectiveOpts is one row per rule: each source against the options it
// compiles under, declared the full JavaScript sub-language unless the row
// says otherwise.
func TestEffectiveOpts(t *testing.T) {
	js := langs.JavaScript().Opts(core.Defaults())
	uses := func(implicits, args string, getters bool) core.Opts {
		o := js
		o.Implicits, o.Args, o.Getters = implicits, args, getters
		return o
	}
	declare := func(args string) core.Opts {
		o := core.Defaults()
		o.Args = args
		return o
	}
	rows := []struct {
		name, src      string
		declared, want core.Opts
	}{
		{"uses nothing", `var s = 0; for (var i = 0; i < 3; i++) { s = s + i; } console.log(s);`, js, uses("none", "none", false)},
		{"valueOf as an identifier", `var n = (5).valueOf();`, js, uses("full", "none", false)},
		{"toString as a property name", `var o = {toString: function () { return "o"; }};`, js, uses("full", "none", false)},
		{"valueOf in a string literal", `var o = {}; o["valueOf"] = function () { return 1; };`, js, uses("full", "none", false)},
		{"valueOf under a computed name", `var o = {}; o["value" + "Of"] = function () { return 1; };`, js, uses("none", "none", false)},
		{"an accessor literal", `var o = {get x() { return 1; }};`, js, uses("none", "none", true)},
		{"a setter literal", `var o = {set x(v) {}};`, js, uses("none", "none", true)},
		{"a property named get", `var o = {get: 1, set: 2}; console.log(o.get + o.set);`, js, uses("none", "none", false)},
		{"Object.defineProperty", `var o = {}; Object.defineProperty(o, "x", {value: 1});`, js, uses("none", "none", true)},
		{"Object.defineProperties", `var o = {}; Object.defineProperties(o, {});`, js, uses("none", "none", true)},
		{"Object as a value", `var O = Object; O.keys({});`, js, uses("none", "none", true)},
		{"Object under a computed name", `Object["keys"]({});`, js, uses("none", "none", true)},
		{"Object as the last token", `var O = Object`, js, uses("none", "none", true)},
		{"Object.keys and Object.create", `var k = Object.keys(Object.create(null)); console.log(k.length);`, js, uses("none", "none", false)},
		{"arguments kept", `function f() { return arguments.length; }`, declare("mixed"), declare("mixed")},
		{"arguments widened", `function f() { return arguments.length; }`, declare("none"), declare("full")},
		{"no arguments", `function f(a) { return a; }`, declare("varargs"), declare("none")},
		{"eval keeps every option", `var o = {}; eval("1");`, js, js},
		{"eval keeps args=none", `function f() { return arguments.length; } eval("1");`, declare("none"), declare("none")},
	}
	for _, r := range rows {
		c, err := core.Compile(r.src, r.declared)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if c.Opts != r.want {
			t.Errorf("%s: compiled under %+v, want %+v", r.name, c.Opts, r.want)
		}
	}
}

// TestEffectiveOptsREPL: a REPL session keeps every option declared, since
// what its turns use is not in the program's text. A run of a narrowed
// compile refuses a turn; CompileREPL's takes one that converts. A snapshot
// of the session restores through Compile, which narrows, so the restore is
// refused: the blob no longer matches the program it recompiles.
func TestEffectiveOptsREPL(t *testing.T) {
	js := langs.JavaScript().Opts(core.Defaults())
	const src = `var base = 1;`
	const turn = `var m = {valueOf: function () { return 41; }}; m + 1`
	start := func(compile func(string, core.Opts) (*core.Compiled, error)) *core.AsyncRun {
		t.Helper()
		c, err := compile(src, js)
		if err != nil {
			t.Fatal(err)
		}
		run, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		return run
	}
	narrowed := start(core.Compile)
	if narrowed.CompiledOpts() == js {
		t.Fatal("the program compiled under every option declared: nothing narrows")
	}
	if _, err := narrowed.EvalAndWait(turn); err == nil || !strings.Contains(err.Error(), "CompileREPL") {
		t.Errorf("a turn on a narrowed run: %v, want an error naming CompileREPL", err)
	}
	session := start(core.CompileREPL)
	if got := session.CompiledOpts(); got != js {
		t.Errorf("the session compiled under %+v, want %+v", got, js)
	}
	blob, err := session.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Restore(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &bytes.Buffer{}}, blob); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("the restore of a session whose program narrows: %v, want a mismatch", err)
	} else {
		t.Logf("the restore: %v", err)
	}
	if v, err := session.EvalAndWait(turn); err != nil || v.Num() != 42 {
		t.Errorf("the turn returned %v, %v, want 42", v, err)
	}
}

// TestNarrowingFence: under the JavaScript profile, paused after every
// statement, a pause lands inside the getter that edge/narrow-computed-define
// installs through a computed name of defineProperty — the program keeps the
// getters sub-language — and never inside the valueOf edge/narrow-computed-valueof
// stores under a computed name, which the rules miss: it runs atomically, as
// a native would, and both print their .out. Each row keeps a global, inside,
// true while the method's loop runs.
func TestNarrowingFence(t *testing.T) {
	js := langs.JavaScript().Opts(base())
	for _, row := range []struct {
		name         string
		pausesInside bool
	}{{"edge/narrow-computed-define", true}, {"edge/narrow-computed-valueof", false}} {
		p := corpusProgram(t, row.name)
		c, err := core.Compile(p.src, js)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range bothEngines {
			run, buf := mustStart(t, c, engine)
			pauses, inside := 0, 0
			for pump(run, 1) {
				pauses++
				if v, _ := run.In.Global.Lookup("inside"); v == interp.True {
					inside++
				}
			}
			if got := transcript(run, buf); got != p.want {
				t.Errorf("%s/%s: printed %q, want %q", row.name, engine, got, p.want)
			}
			t.Logf("%s/%s: %d of %d pauses inside", row.name, engine, inside, pauses)
			if (inside > 0) != row.pausesInside {
				t.Errorf("%s/%s: %d of %d pauses landed inside the method", row.name, engine, inside, pauses)
			}
		}
	}
}

var needsArgs = regexp.MustCompile(`(?m)^// needs:.* args=`)

// TestArgumentsWidened: every row whose needs: line declares an arity
// sub-language and that carries no known: line prints its .out under Defaults(), whose args=none a
// program that names arguments compiles as full — paused every 1 to 8
// statements, resumed in place on both engines and through a snapshot on
// the serving one.
func TestArgumentsWidened(t *testing.T) {
	defaults := profile{"defaults", base()}
	rows := 0
	for _, p := range corpus(t) {
		if !needsArgs.MatchString(p.src) || len(p.known) > 0 {
			continue
		}
		rows++
		var cells []cell
		for q := uint64(1); q <= 8; q++ {
			cells = append(cells,
				cell{defaults, core.BackendBytecode, "checked", q, "resume"},
				cell{defaults, core.BackendTree, "checked", q, "resume"},
				cell{defaults, core.BackendBytecode, "checked", q, "hop"})
		}
		p.hold(t, cells...)
	}
	if rows < 10 {
		t.Fatalf("%d rows declare an arity sub-language with no known: line", rows)
	}
}

// TestNarrowingFenceBlocks: a valueOf the rules miss runs atomically, inside
// a native frame no continuation can unwind through, as a sort comparator
// does, so a blocking native either calls is refused with a catchable error
// — where a compile that keeps the conversion helpers (a REPL session's)
// suspends the valueOf and resumes it.
func TestNarrowingFenceBlocks(t *testing.T) {
	const valueOf = `
function Money(n) { this.n = n; }
Money.prototype["value" + "Of"] = function () { return blockingDouble(this.n); };
var r;
try { r = new Money(21) + 0; } catch (e) { r = e.message; }
console.log(r);`
	const comparator = `
var r;
try { r = [2, 1].sort(function (a, b) { return blockingDouble(a) - b; }).join(); } catch (e) { r = e.message; }
console.log(r);`
	const refused = "cannot block inside a native callback\n"
	js := langs.JavaScript().Opts(core.Defaults())
	for _, row := range []struct {
		name, src string
		compile   func(string, core.Opts) (*core.Compiled, error)
		want      string
	}{
		{"narrowed valueOf", valueOf, core.Compile, refused},
		{"session valueOf", valueOf, core.CompileREPL, "42\n"},
		{"comparator", comparator, core.CompileREPL, refused},
	} {
		c, err := row.compile(row.src, js)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		run, err := c.NewRun(core.RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
		if err != nil {
			t.Fatal(err)
		}
		run.RT.Blocking("blockingDouble", func(args []interp.Value, resume func(interp.Value)) {
			n := args[0].Num()
			run.Loop.Post(func() { resume(interp.NumberValue(n * 2)) }, 30)
		})
		run.Run(nil)
		err = run.Wait()
		if got := buf.String(); err != nil || got != row.want {
			t.Errorf("%s: printed %q, %v; want %q", row.name, got, err, row.want)
		}
	}
}
