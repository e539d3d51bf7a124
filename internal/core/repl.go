package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
)

// Eval compiles a source snippet with this run's options and executes it as
// a new top-level turn sharing the global environment — a REPL interaction.
// The snippet runs under full execution control: it can be paused, it
// yields on schedule, and an infinite loop in one REPL entry does not wedge
// the host (§6.4: Pyret's REPL is one of the features Stopify subsumes).
//
// onDone receives the completion value or error. The caller pumps the event
// loop (Wait, or its own loop) exactly as for Run.
//
// A turn compiles under the options the run's program was declared with, so
// the run must be a session: its program compiled by CompileREPL, or one
// narrowing took nothing from (Compiled.Opts).
func (a *AsyncRun) Eval(src string, onDone func(interp.Value, error)) error {
	if c := a.compiled; c.Opts != c.declared {
		return fmt.Errorf("stopify: Eval needs a REPL session (CompileREPL): this program compiled under less than its options")
	}
	turn, err := compileFragment(src, a.compiled.Opts, true, a.In.Sites())
	if err != nil {
		return err
	}
	// The turn runs through the driver as a program does. It is in flight
	// from here until the callback records how it ended.
	body, err := enter(a.In, turn)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.finished = false
	a.mu.Unlock()
	a.RT.Run(body, func(v interp.Value, err error) {
		a.record(v, err)
		if onDone != nil {
			onDone(v, err)
		}
	})
	return nil
}

// compileFragment compiles a snippet that joins a realm already running —
// an eval string or a REPL turn — as a top level (compileTop). With echo, a
// trailing expression statement becomes the body's return value; it is
// taken before the split, so a declaration, which the split makes an
// assignment, echoes undefined, as node's REPL does. Site IDs continue from
// sites, the realm's own count.
func compileFragment(src string, opts Opts, echo bool, sites ast.Sites) (*ast.Program, error) {
	frag, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if n := len(frag.Body); echo && n > 0 {
		if es, ok := frag.Body[n-1].(*ast.ExprStmt); ok {
			frag.Body[n-1] = &ast.Return{Arg: es.X}
		}
	}
	return compileTop(frag, opts, 0, sites)
}

// EvalAndWait is Eval plus pumping the loop to completion; it returns the
// snippet's completion value.
func (a *AsyncRun) EvalAndWait(src string) (interp.Value, error) {
	var result interp.Value
	var rerr error
	if err := a.Eval(src, func(v interp.Value, e error) { result = v; rerr = e }); err != nil {
		return interp.Undefined, err
	}
	if err := a.Wait(); err != nil {
		return interp.Undefined, err
	}
	return result, rerr
}
