// Package desugar lowers the surface JavaScript the parser accepts into the
// core sub-language the A-normalizer and continuation instrumentation work
// on, and makes the implicit behaviours of §4 of the paper explicit:
//
//   - for / do-while / for-in loops become while loops (with continue
//     rewritten so instrumentation sees a single loop shape)
//   - switch becomes a guarded if-chain inside a labeled block
//   - arrow functions become named function expressions with $this/$args
//   - every anonymous function gets a name (captured frames refer to it)
//   - update (++/--) and compound assignments become plain assignments
//   - implicit valueOf/toString conversions become explicit prelude calls
//     ($add, $lt, ...) per the Impl column of Figure 5
//   - getter/setter-triggering member accesses become $get/$set calls
//   - `new F(...)` becomes $construct(F, [...]) when constructors are
//     desugared (Figure 2b's "desugar" strategy)
//   - formal parameters become arguments[i] references for the full
//     arguments sub-language (§4.2)
//   - $suspend() is inserted into every function and loop, and $bp(line)
//     before every statement when debugging is on (§5)
//
// Passes are applied to user code only; the runtime prelude (which defines
// $add and friends in plain JavaScript) is appended afterwards by the core
// compiler so it is never rewritten in terms of itself.
package desugar

import "repro/internal/ast"

// ImplicitsMode selects how much of §4.1 to make explicit.
type ImplicitsMode int

// Implicits modes, from Figure 5's Impl column.
const (
	ImplicitsNone ImplicitsMode = iota // ✗ — arithmetic cannot call user code
	ImplicitsPlus                      // + — only + may invoke toString
	ImplicitsFull                      // ✓ — all operators may invoke user code
)

// Options selects the desugarings to run.
type Options struct {
	Implicits   ImplicitsMode
	Getters     bool // expose getters/setters as $get/$set calls
	CtorDesugar bool // new F(...) -> $construct(F, [...])
	ArgsFull    bool // formals become arguments[i] (full aliasing)
	Suspend     bool // insert $suspend() in functions and loops
	Breakpoints bool // insert $bp(line) before every statement
}

// Namer generates fresh identifiers; a single Namer is threaded through all
// passes of one compilation so names never collide, with each other or with
// the guest's own (Apply hands it Program.Guest).
type Namer struct {
	n     int
	guest ast.Names
}

// Fresh returns a new name with the given prefix.
func (nm *Namer) Fresh(prefix string) string {
	return nm.guest.Fresh(prefix, &nm.n)
}

// Apply runs the configured passes over prog in order. It returns prog,
// which is rewritten in place (statement slices are rebuilt). Every name nm
// draws from here on avoids prog.Guest.
func Apply(prog *ast.Program, opts Options, nm *Namer) *ast.Program {
	nm.guest = prog.Guest
	if opts.Breakpoints {
		prog.Body = insertBreakpoints(prog.Body)
	}
	prog.Body = lowerArrows(prog.Body, nm, true)
	nameFunctions(prog, nm)
	prog.Body = lowerLoops(prog.Body, nm)
	prog.Body = normalizeAssignments(prog.Body, nm)
	if opts.Implicits != ImplicitsNone {
		prog.Body = lowerImplicits(prog.Body, opts.Implicits, nm)
	}
	if opts.Getters {
		prog.Body = lowerGetters(prog.Body, nm)
	}
	if opts.CtorDesugar {
		prog.Body = lowerCtors(prog.Body, nm)
	}
	if opts.ArgsFull {
		lowerArgsFull(prog)
	}
	if opts.Suspend {
		prog.Body = insertSuspend(prog.Body)
	}
	return prog
}
