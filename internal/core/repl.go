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
func (a *AsyncRun) Eval(src string, onDone func(interp.Value, error)) error {
	evalProg, err := parser.Parse(src)
	if err != nil {
		return err
	}
	promoteDeclsToGlobals(evalProg)
	// A trailing expression statement becomes the turn's value, so a REPL
	// can echo it.
	if n := len(evalProg.Body); n > 0 {
		if es, ok := evalProg.Body[n-1].(*ast.ExprStmt); ok {
			evalProg.Body[n-1] = &ast.Return{Arg: es.X}
		}
	}
	a.evalTurns++
	name := fmt.Sprintf("$repl%d", a.evalTurns)
	merged := compileProgram(evalProg, a.compiled.Opts, &desugar.Namer{}, name, 0, a.In.Sites())
	// Define the compiled turn's function in the shared realm...
	if err := a.In.RunProgram(merged); err != nil {
		return err
	}
	fn, ok := a.In.Global.Lookup(name)
	if !ok {
		return fmt.Errorf("stopify: repl turn %s not defined", name)
	}
	// ...and run it through the driver, like $main.
	a.RT.Run(fn, func(v interp.Value, err error) {
		a.finished = true
		if onDone != nil {
			onDone(v, err)
		}
	})
	a.finished = false
	return nil
}

// promoteDeclsToGlobals converts the snippet's top-level declarations into
// assignments so they land in the shared global scope — REPL semantics
// rather than strict-eval semantics. (The turn body becomes a function, so
// a plain declaration would otherwise be turn-local.)
func promoteDeclsToGlobals(prog *ast.Program) {
	var out []ast.Stmt
	for _, s := range prog.Body {
		switch n := s.(type) {
		case *ast.FuncDecl:
			out = append(out, ast.ExprOf(ast.SetId(n.Fn.Name, n.Fn)))
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
	prog.Body = out
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
