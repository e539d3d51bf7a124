package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/desugar"
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
	a.evalTurns++
	name := fmt.Sprintf("$repl%d", a.evalTurns)
	// A trailing expression statement becomes the turn's value, so a REPL
	// can echo it.
	turn, err := compileFragment(src, a.compiled.Opts, name, true, a.In.Sites())
	if err != nil {
		return err
	}
	// Make the compiled turn's function over the shared global frame, bound
	// to no name, and run it through the driver, like $main. The turn is in
	// flight from here until the callback records how it ended.
	a.In.ReserveSites(turn.Sites)
	fn := interp.ObjectValue(a.In.NewClosure(turn.Body[0].(*ast.FuncDecl).Fn, a.In.Global))
	a.mu.Lock()
	a.finished = false
	a.mu.Unlock()
	a.RT.Run(fn, func(v interp.Value, err error) {
		a.mu.Lock()
		a.result, a.err, a.finished = v, err, true
		a.mu.Unlock()
		if onDone != nil {
			onDone(v, err)
		}
	})
	return nil
}

// compileFragment compiles a snippet that joins a realm already running —
// an eval string or a REPL turn — into a program declaring one function,
// name, whose body is the snippet; the caller calls it, made over the
// global frame. With echo, a trailing expression statement becomes
// the function's return value. Site IDs continue from sites, the realm's
// own count.
func compileFragment(src string, opts Opts, name string, echo bool, sites ast.Sites) (*ast.Program, error) {
	frag, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	// The echo is taken first: a declaration the promotion turns into an
	// assignment echoes undefined, as node's REPL does.
	if n := len(frag.Body); echo && n > 0 {
		if es, ok := frag.Body[n-1].(*ast.ExprStmt); ok {
			frag.Body[n-1] = &ast.Return{Arg: es.X}
		}
	}
	promoteDeclsToGlobals(frag)
	return compileProgram(frag, opts, &desugar.Namer{}, name, 0, sites)
}

// promoteDeclsToGlobals converts the fragment's top-level declarations into
// assignments so they land in the shared global scope, as they do when raw
// eval runs the fragment in the global frame. (The fragment's body becomes a
// function, so a plain declaration would otherwise be local to it.)
// Function declarations move to the front: they are hoisted.
func promoteDeclsToGlobals(prog *ast.Program) {
	var funcs, out []ast.Stmt
	for _, s := range prog.Body {
		switch n := s.(type) {
		case *ast.FuncDecl:
			funcs = append(funcs, ast.ExprOf(ast.SetId(n.Fn.Name, n.Fn)))
		case *ast.VarDecl:
			for _, d := range n.Decls {
				init := d.Init
				if init == nil {
					init = ast.Undef()
				}
				out = append(out, ast.ExprOf(ast.SetId(d.Name, init)))
			}
		default:
			out = append(out, s)
		}
	}
	prog.Body = append(funcs, out...)
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
