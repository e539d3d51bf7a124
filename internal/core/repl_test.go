package core

import (
	"bytes"
	"testing"

	"repro/internal/eventloop"
)

// TestREPLTurns drives a multi-turn REPL session over one shared realm:
// definitions persist across turns, each turn is independently suspendable,
// and a runaway turn can be stopped without killing the session (§6.4).
func TestREPLTurns(t *testing.T) {
	c, err := Compile("", hammer("checked"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}

	if _, err := run.EvalAndWait(`function square(x) { return x * x; }`); err != nil {
		t.Fatalf("turn 1: %v", err)
	}
	if _, err := run.EvalAndWait(`console.log(square(12));`); err != nil {
		t.Fatalf("turn 2: %v", err)
	}
	if buf.String() != "144\n" {
		t.Fatalf("repl output %q", buf.String())
	}

	// Turn 3 is an infinite loop: stop it, session survives.
	if err := run.Eval(`while (true) { }`, nil); err != nil {
		t.Fatal(err)
	}
	stopped := false
	run.Pause(func() { stopped = true })
	for i := 0; i < 10000 && !stopped; i++ {
		if !run.Loop.RunOne() {
			break
		}
	}
	if !stopped {
		t.Fatal("runaway REPL turn was not stopped")
	}
	// Abandon the paused turn and keep using the session.
	buf.Reset()
	if _, err := run.EvalAndWait(`console.log(square(3));`); err != nil {
		t.Fatalf("turn 4 after stop: %v", err)
	}
	if buf.String() != "9\n" {
		t.Fatalf("post-stop output %q", buf.String())
	}
}

// TestREPLDeclarationRebinds: a function declared in one turn binds its
// name in the global scope, not inside its own body, so a later turn that
// rebinds the name redirects the body's recursive calls — a memoized fib
// makes one call per n, as it does in JavaScript.
func TestREPLDeclarationRebinds(t *testing.T) {
	c, err := Compile("", hammer("checked"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	for i, turn := range []string{
		`var calls = 0; function fib(n) { calls++; return n < 2 ? n : fib(n - 1) + fib(n - 2); }`,
		`function memoize(f) { var memo = {}; return function (n) { if (!(n in memo)) { memo[n] = f(n); } return memo[n]; }; } fib = memoize(fib);`,
		`console.log(fib(20), calls);`,
	} {
		if _, err := run.EvalAndWait(turn); err != nil {
			t.Fatalf("turn %d: %v", i+1, err)
		}
	}
	if got, want := buf.String(), "6765 21\n"; got != want {
		t.Fatalf("repl output %q, want %q", got, want)
	}
	// The promoted declaration keeps its name.
	v, err := run.EvalAndWait(`memoize`)
	if err != nil {
		t.Fatal(err)
	}
	if o := v.Obj(); o == nil || o.Fn == nil || o.Fn.Name() != "memoize" {
		t.Fatalf("memoize evaluates to %v, want the closure named memoize", v)
	}
}

func TestREPLSyntaxError(t *testing.T) {
	c, err := Compile("", Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Eval("var = ;", nil); err == nil {
		t.Fatal("syntax error should be reported")
	}
}

// TestREPLFinishedDuringTurn polls Finished from a second goroutine while a
// REPL turn starts and completes — Finished is documented safe from any
// goroutine, so under -race this fails if a turn's completion is written
// without the lock.
func TestREPLFinishedDuringTurn(t *testing.T) {
	c, err := Compile("", Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				run.Finished()
			}
		}
	}()
	for i := 0; i < 20; i++ {
		v, err := run.EvalAndWait(`var s = 0; for (var i = 0; i < 200; i++) { s += i; } s`)
		if err != nil || v.Num() != 19900 {
			t.Fatalf("turn %d: value %v, err %v", i, v, err)
		}
		if !run.Finished() {
			t.Fatalf("turn %d: not finished after EvalAndWait", i)
		}
	}
	close(stop)
	<-polled
}

// TestREPLTurnAfterMainThrew: a turn's outcome replaces $main's. Wait used
// to keep returning the error $main finished with, whatever later turns did.
func TestREPLTurnAfterMainThrew(t *testing.T) {
	c, err := Compile(`throw new Error("main failed");`, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err == nil {
		t.Fatal("$main should have thrown")
	}
	if err := run.Eval(`6 * 7`, nil); err != nil {
		t.Fatal(err)
	}
	if run.Finished() {
		t.Fatal("Finished() true while the turn is still queued")
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("Wait after a successful turn returned %v", err)
	}
	if v, err := run.Result(); err != nil || v.Num() != 42 {
		t.Fatalf("Result() = %v, %v; want 42, nil", v, err)
	}
	if _, err := run.EvalAndWait(`throw new Error("turn failed");`); err == nil {
		t.Fatal("a throwing turn should fail Wait")
	}
	if v, err := run.EvalAndWait(`"recovered"`); err != nil || v.Str() != "recovered" {
		t.Fatalf("turn after a failed turn: %v, %v", v, err)
	}
}

// TestREPLEchoes: a turn echoes what node's REPL echoes — a trailing
// expression's value, and undefined for a declaration, which the turn turns
// into an assignment to the global.
func TestREPLEchoes(t *testing.T) {
	c, err := Compile("", Defaults())
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	for _, turn := range []struct{ src, want string }{
		{`var a = 1`, "undefined"},
		{`function f() {}`, "undefined"},
		{`a`, "1"},
		{`function g() { return 7 } g()`, "7"},
	} {
		v, err := run.EvalAndWait(turn.src)
		if err != nil {
			t.Fatalf("%s: %v", turn.src, err)
		}
		if got := run.In.Display(v); got != turn.want {
			t.Errorf("%s echoes %s, want %s", turn.src, got, turn.want)
		}
	}
}

// TestREPLHoists: a turn declares what the global frame binds before its
// body runs, as a program does, so a var is undefined before its statement
// and a for's var is a global after the loop; and a session started from a
// program reads that program's top-level vars and functions, which are
// globals as a script's are.
func TestREPLHoists(t *testing.T) {
	for _, session := range []struct {
		program string
		turns   []struct{ src, want, out string }
	}{
		{"", []struct{ src, want, out string }{
			{`console.log(typeof hx, hx); var hx = 1;`, "undefined", "undefined undefined\n"},
			{`hx`, "1", ""},
			{`for (var i = 0; i < 3; i++) {}`, "undefined", ""},
			{`i`, "3", ""},
		}},
		{`var base = 41; function inc(v) { return v + 1; }`, []struct{ src, want, out string }{
			{`inc(base)`, "42", ""},
		}},
	} {
		c, err := CompileREPL(session.program, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		run, err := c.NewRun(RunConfig{Clock: eventloop.NewVirtualClock(), Out: &buf})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		for _, turn := range session.turns {
			buf.Reset()
			v, err := run.EvalAndWait(turn.src)
			if err != nil {
				t.Fatalf("%q then %q: %v", session.program, turn.src, err)
			}
			if got := run.In.Display(v); got != turn.want || buf.String() != turn.out {
				t.Errorf("%q then %q: echoes %s and prints %q, want %s and %q", session.program, turn.src, got, buf.String(), turn.want, turn.out)
			}
		}
	}
}
