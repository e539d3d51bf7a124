package core

import (
	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/boxes"
	"repro/internal/desugar"
	"repro/internal/instrument"
	"repro/internal/parser"
	"repro/internal/printer"
	"repro/internal/resolve"
	"repro/internal/snapshot"
)

// CompileWholeTree is the reference the spliced Compile is held to: the
// compiler as it was before the prelude was cached — $main desugared, the
// prelude parsed and desugared behind it with the same Namer, each
// A-normalized, and the four remaining passes run once over prelude + $main
// merged. It returns the printed program.
func CompileWholeTree(source string, opts Opts) (string, error) {
	if err := opts.normalize(); err != nil {
		return "", err
	}
	userProg, err := parser.Parse(source)
	if err != nil {
		return "", err
	}
	opts = opts.narrow(userProg.Uses)
	nm := &desugar.Namer{}
	wrapped := &ast.Program{Body: []ast.Stmt{
		&ast.FuncDecl{Fn: &ast.Func{Name: "$main", Body: userProg.Body}},
	}, Guest: userProg.Guest}
	desugar.Apply(wrapped, opts.desugarOptions(), nm)
	preludeProg, err := parser.Parse(preludeSource(opts))
	if err != nil {
		return "", err
	}
	ast.MarkIntrinsics(preludeProg)
	desugar.Apply(preludeProg, desugar.Options{}, nm)
	// Each part's temporaries avoid its own `$` names (Program.Guest): the
	// guest's are no concern of the prelude, which every program shares.
	// NormalizeFrom numbers them as one pass over the merged tree would.
	anf.NormalizeFrom(wrapped, anf.NormalizeFrom(preludeProg, 0))
	merged := &ast.Program{Body: append(preludeProg.Body, wrapped.Body...)}
	boxes.Box(merged)
	// The prelude is instrumented under the options compilePrelude lowers it with.
	n := len(preludeProg.Body)
	instrument.Apply(&ast.Program{Body: merged.Body[:n], Guest: preludeProg.Guest}, opts.forPrelude().instrumentOptions())
	instrument.Apply(&ast.Program{Body: merged.Body[n:], Guest: wrapped.Guest}, opts.instrumentOptions())
	resolve.Program(merged)
	return printer.Print(merged), nil
}

// CheckANF runs source through the passes Compile runs ahead of the
// instrumentation, under opts as given (a Compiled's Opts: what the program
// was compiled under), and holds what they leave to anf.Check, whose
// invariants the instrumentation assumes.
func CheckANF(source string, opts Opts) error {
	if err := opts.normalize(); err != nil {
		return err
	}
	userProg, err := parser.Parse(source)
	if err != nil {
		return err
	}
	wrapped := &ast.Program{Body: []ast.Stmt{
		&ast.FuncDecl{Fn: &ast.Func{Name: "$main", Body: userProg.Body}},
	}, Guest: userProg.Guest}
	desugar.Apply(wrapped, opts.desugarOptions(), &desugar.Namer{})
	anf.Normalize(wrapped)
	return anf.Check(wrapped)
}

// NewRealm builds the realm NewRun and Restore start from, with nothing run.
func (c *Compiled) NewRealm(cfg RunConfig) (*AsyncRun, error) { return c.newRealm(cfg) }

// Registry is the host-object re-link table the realm was built with.
func (a *AsyncRun) Registry() *snapshot.Registry { return a.reg }

// CodeTable is the function and scope-layout numbering snapshots of c's runs use.
func (c *Compiled) CodeTable() *snapshot.CodeTable { return c.codeTable() }

// CompiledOpts is what the run's program was compiled under.
func (a *AsyncRun) CompiledOpts() Opts { return a.compiled.Opts }
