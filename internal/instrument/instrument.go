// Package instrument implements the paper's core contribution: the K⟦·⟧ /
// A⟦·⟧ compilation of Figures 3 and 4, which rewrites A-normalized
// JavaScript so every function can run in three modes —
//
//	normal:  execute as written
//	capture: unwind, reifying one stack frame per activation
//	restore: re-enter frames, jump to the saved label, and resume
//
// A reified frame carries the call-site label, a snapshot of the locals,
// and — where Figure 3 has a reenter thunk — the function and receiver to
// re-apply, as plain data. Three interchangeable strategies decide
// how frames are captured (§3.2): checked-return (a conditional after every
// call), exceptional (a handler around every call), and eager (a shadow
// stack maintained during normal execution). Constructors are either
// desugared away before this pass or handled dynamically with new.target
// (§3.2 "Constructors"); the arity sub-languages of §4.2 choose what a
// re-application carries besides the locals. §3.1.1's catch/finally
// re-entry is implemented by re-throwing a saved exception and re-returning
// a saved completion value.
//
// Instrumented code communicates with the runtime (internal/rt) through JS
// globals ($mode, $stack, $rstack, $shadow) and runtime natives ($C,
// $suspend, $bp, $isSig, $isCap), mirroring the paper's generated code.
package instrument

import (
	"slices"

	"repro/internal/ast"
)

// Strategy selects the continuation representation (Figure 4 b/c/d).
type Strategy int

// Continuation strategies.
const (
	Checked     Strategy = iota // Figure 4b: check a flag after every call
	Exceptional                 // Figure 4c: handler around every call
	Eager                       // Figure 4d: maintain a shadow stack
)

func (s Strategy) String() string {
	switch s {
	case Checked:
		return "checked"
	case Exceptional:
		return "exceptional"
	case Eager:
		return "eager"
	}
	return "unknown"
}

// ArgsMode selects the arity sub-language (§4.2, Figure 5's Args column).
type ArgsMode int

// Arity sub-languages.
const (
	ArgsNone    ArgsMode = iota // ✗ — formals travel in locals; nothing else is re-applied
	ArgsVarargs                 // V — the frame carries arguments and re-entry applies it
	ArgsMixed                   // M — arguments travels in locals beside the formals
	ArgsFull                    // ✓ — formals already live in arguments[i], which travels in locals
)

// Options configures the instrumentation.
type Options struct {
	Strategy Strategy
	// WrappedCtors preserves new-expressions and makes every function
	// constructor-safe using new.target; when false, constructors must
	// have been desugared to $construct beforehand.
	WrappedCtors bool
	Args         ArgsMode
	// PerStatementGuards emits the paper's literal K⟦·⟧ output — an `if
	// (normal)` around every individual statement (Figure 4a) — instead of
	// grouping maximal label-free runs under one guard. Used by the
	// ablation benchmarks; grouping is semantically identical and faster.
	PerStatementGuards bool
}

// Names shared between generated code and internal/rt. Every other runtime
// name generated code reads is an intrinsic (ast.Intrinsic), which no guest
// binding can stand in for.
const (
	// CFn is the control operator of §3, the guest's own API: a global.
	CFn = "$C"

	// SelfVar is the name an instrumented declaration's body binds the
	// function to (ast.Func.Self), for its frames to record it by; suffixed
	// in a compile whose guest has a name so spelled.
	SelfVar = "$self"

	// A reified frame (pushFrame) is one array, [label, fn, self, (args,)
	// saved…]: these are its fixed indexes. internal/rt builds the bottom
	// frame and re-enters the top one with the same layout.
	FrameLabel = 0
	FrameFn    = 1
	FrameSelf  = 2
	FrameArgs  = 3 // ArgsVarargs only; the saved locals follow
)

// Apply instruments every function in prog in place. The program's top
// level is expected to run no call (the core compiler moves a top level's
// statements into a function, $main, first: ast.TopLevel).
func Apply(prog *ast.Program, opts Options) *ast.Program {
	var fns []*ast.Func
	ast.Walk(prog, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok {
			fns = append(fns, fn)
		}
		return true
	})
	nm := newNames(prog.Guest)
	for _, fn := range fns {
		instrumentFunc(fn, opts, nm)
	}
	return prog
}

// names is what one compile's instrumentation calls the locals it makes up:
// the fixed ones, each suffixed when the guest has a name so spelled, and
// the guest's `$` names, which no fresh one takes. It also keeps what each
// function's subtree names (nested), which every enclosing function asks.
type names struct {
	guest                ast.Names
	lbl, k, ct, nt, self string
	subtrees             map[*ast.Func]map[string]bool
}

func newNames(guest ast.Names) *names {
	return &names{guest: guest, lbl: guest.Avoid("$lbl"), k: guest.Avoid("$k"),
		ct: guest.Avoid("$ct"), nt: guest.Avoid("$nt"), self: guest.Avoid(SelfVar),
		subtrees: map[*ast.Func]map[string]bool{}}
}

// instrumentFunc rewrites one function body and returns its context, nil
// when it needs none. Nested functions are instrumented by their own Apply
// visit; this pass never descends into them.
func instrumentFunc(fn *ast.Func, opts Options, nm *names) *fctx {
	if !hasNonTailSites(fn.Body) {
		// No non-tail call sites: the function can never be suspended nor
		// re-entered, so it needs no machinery (leaf functions pay nothing,
		// and tail calls stay uninstrumented per §3.2.2).
		return nil
	}
	// A declaration's name is its enclosing scope's binding, which a guest
	// may reassign, so its frames record it by a name of its own.
	if fn.Self == "" {
		fn.Self = nm.self
	}
	c := &fctx{
		names:       nm,
		opts:        opts,
		fname:       fn.Self,
		fin:         map[*ast.Try]*finInfo{},
		shadowDepth: map[*ast.Try]string{},
	}

	body := rewriteLists(fn.Body, c.renameCatch)
	if opts.WrappedCtors {
		body = c.ctorProtocol(body)
	}
	body = rewriteLists(body, c.finallyReturns)
	if opts.Strategy == Eager {
		body = rewriteLists(body, c.saveShadowDepth)
	}
	// Locals must be collected before DeclToAssigns erases the var
	// declarations. pushFrame (inside kStmts) inlines the saved subset at
	// every capture site, so it rides on the context.
	c.locals = c.localsList(fn, body)
	body = rewriteLists(body, ast.DeclToAssigns)
	c.labelSites(body)
	c.saved = c.savedLocals(fn, body)

	fn.Body = append(c.prologue(fn), c.kStmts(body)...)
	return c
}

// hasNonTailSites reports whether the body contains any application outside
// tail position (Call or New anywhere except directly under `return`).
func hasNonTailSites(body []ast.Stmt) bool {
	found := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Call, *ast.New:
			found = true
		case *ast.Func:
			return false // nested functions are separate scopes
		case *ast.Return:
			if call, ok := n.Arg.(*ast.Call); ok {
				// Tail position: the call is no site; only its callee and
				// arguments could contain one (post-ANF they are atoms).
				ast.Walk(call.Callee, visit)
				for _, a := range call.Args {
					ast.Walk(a, visit)
				}
				return false
			}
		}
		return !found
	}
	for _, s := range body {
		ast.Walk(s, visit)
	}
	return found
}

// fctx is per-function instrumentation state.
type fctx struct {
	*names
	opts        Options
	fname       string
	locals      []string // every local, for the prologue's declarations
	saved       []string // the locals a frame saves (savedLocals), for pushFrame
	nextLabel   int      // next call-site label; labels start at 1
	extra       []string
	ctv         string // constructor-protocol return temp
	genSym      int
	fin         map[*ast.Try]*finInfo
	shadowDepth map[*ast.Try]string
}

func (c *fctx) fresh(prefix string) string {
	name := c.guest.Fresh(prefix, &c.genSym)
	c.extra = append(c.extra, name)
	return name
}

// localsList builds the ordered locals vector the prologue declares, of
// which a frame saves a subset (savedLocals). Order: formals, arguments (when
// the arity mode carries it here), declared vars and function names, then
// generated locals.
func (c *fctx) localsList(fn *ast.Func, body []ast.Stmt) []string {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	if c.opts.Args != ArgsFull {
		for _, p := range fn.Params {
			add(p)
		}
	}
	if c.opts.Args == ArgsMixed || c.opts.Args == ArgsFull {
		add("arguments")
	}
	for _, v := range ast.DeclaredNames(body) {
		add(v)
	}
	for _, v := range c.extra {
		add(v)
	}
	return names
}

// ---------------------------------------------------------------------------
// Prologue (Figure 3 lines 5–13)
// ---------------------------------------------------------------------------

func isMode(mode ast.Mode) ast.Expr {
	return ast.Bin("===", ast.IntrinsicMode.Id(), ast.Strlit(ast.ModeNames[mode]))
}

func (c *fctx) prologue(fn *ast.Func) []ast.Stmt {
	var out []ast.Stmt

	// var l1, l2, ... ;  — every non-formal local, so restore can assign
	// before the original declarations run.
	decl := &ast.VarDecl{}
	isParam := map[string]bool{}
	for _, p := range fn.Params {
		isParam[p] = true
	}
	for _, name := range c.locals {
		if !isParam[name] && name != "arguments" {
			decl.Decls = append(decl.Decls, ast.Declarator{Name: name})
		}
	}
	if len(decl.Decls) > 0 {
		out = append(out, decl)
	}

	if c.opts.WrappedCtors {
		out = append(out, ast.Var(c.nt, &ast.NewTarget{}))
	}
	out = append(out, &ast.VarDecl{Decls: []ast.Declarator{
		{Name: c.lbl, Init: ast.Int(-1)},
		{Name: c.k},
	}})

	// if ($mode === "restore") { restoreFrame }
	restore := []ast.Stmt{
		ast.ExprOf(ast.SetId(c.k, frameCall(ast.IntrinsicRStack.Id(), "pop"))),
		ast.ExprOf(ast.SetId(c.lbl, c.frameElem(FrameLabel))),
	}
	base := c.savedBase()
	for i, name := range c.saved {
		restore = append(restore, ast.ExprOf(ast.SetId(name, c.frameElem(base+i))))
	}
	restore = append(restore, ast.ExprOf(ast.SetId(c.k,
		ast.Idx(ast.IntrinsicRStack.Id(), ast.Bin("-", ast.Dot(ast.IntrinsicRStack.Id(), "length"), ast.Int(1))))))
	block := ast.IfThen(isMode(ast.ModeRestore), restore...)
	block.Restore = true // the bytecode compiler fuses it
	return append(out, block)
}

// ---------------------------------------------------------------------------
// Pre-passes
// ---------------------------------------------------------------------------

// rewriteLists is the one walk of the pre-passes that prepare a body for
// K⟦·⟧ — renameCatch, ctorProtocol's ctorReturn, finallyReturns,
// saveShadowDepth and ast.DeclToAssigns, run in that order — each of which is an
// expand callback. It offers expand each statement of body and of every
// statement list nested in it, outermost first (ast.Rewriter.Expand), and
// enters no expression, so no nested function: Apply instruments each on its
// own.
func rewriteLists(body []ast.Stmt, expand func(ast.Stmt) ([]ast.Stmt, bool)) []ast.Stmt {
	r := ast.Rewriter{Expand: expand, PreExpr: ast.StmtsOnly}
	return r.Stmts(body)
}

// renameCatch renames every catch parameter to a fresh function-wide local
// ($exn<N>) so the caught exception participates in locals capture and can
// be re-thrown to re-enter the clause (§3.1.1). The catches in a try's block
// draw their names before its own.
func (c *fctx) renameCatch(s ast.Stmt) ([]ast.Stmt, bool) {
	n, ok := s.(*ast.Try)
	if !ok || n.Catch == nil {
		return nil, true
	}
	n.Block.Body = rewriteLists(n.Block.Body, c.renameCatch)
	fresh := c.fresh("$exn")
	c.renameIdent(n.Catch.Body, n.CatchParam, fresh)
	n.CatchParam = fresh
	n.Catch.Body = rewriteLists(n.Catch.Body, c.renameCatch)
	if n.Finally != nil {
		n.Finally.Body = rewriteLists(n.Finally.Body, c.renameCatch)
	}
	return nil, false
}

// renameIdent renames free occurrences of old, a catch parameter, to new
// inside the clause's body, respecting shadowing by nested functions and by
// a nested catch clause of the same name. A `var old = x` there declares the
// function's old and initializes the parameter: the bare declaration stays
// and the initializer moves to new. A nested function it renames in is
// forgotten by nested, which walks it again when asked.
func (c *fctx) renameIdent(body []ast.Stmt, old, new string) {
	var visit func(ast.Node) bool
	visit = func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.Ident:
			if n.Name == old && n.Intrinsic() == ast.NoIntrinsic {
				n.Name = new
			}
		case *ast.VarDecl:
			for i := 0; i < len(n.Decls); i++ {
				if d := n.Decls[i]; d.Name == old && d.Init != nil {
					n.Decls[i].Init = nil
					i++
					n.Decls = slices.Insert(n.Decls, i, ast.Declarator{Name: new, Init: d.Init})
				}
			}
		case *ast.Try:
			if n.Catch != nil && n.CatchParam == old {
				ast.Walk(n.Block, visit)
				ast.Walk(n.Finally, visit)
				return false // the clause renames its own
			}
		case *ast.Func:
			if n.Name == old || slices.Contains(n.Params, old) || slices.Contains(ast.DeclaredNames(n.Body), old) {
				return false
			}
			delete(c.subtrees, n)
		}
		return true
	}
	for _, s := range body {
		ast.Walk(s, visit)
	}
}

// ctorProtocol implements §3.2's wrapped-constructor strategy: capture
// new.target into $nt, rewrite new.target references, and make every return
// honor the constructor protocol (return `this` unless the function
// explicitly returns an object), so that re-entering a constructor as a
// plain function during restore yields the right value.
func (c *fctx) ctorProtocol(body []ast.Stmt) []ast.Stmt {
	c.ctv = c.fresh("$ctv")
	// $nt is declared in the prologue but must also travel in the reified
	// frame: a restored constructor re-enters as a plain call, where
	// new.target is undefined.
	c.extra = append(c.extra, c.nt)
	rewriteNewTarget(body, c.nt)
	out := rewriteLists(body, c.ctorReturn)
	// Implicit completion: constructors return `this`.
	out = append(out, ast.IfThen(
		ast.Bin("!==", ast.Id(c.nt), ast.Undef()),
		ast.Ret(&ast.This{}),
	))
	return out
}

// rewriteNewTarget replaces new.target with nt, the function's $nt, in its
// own code: a nested function has a new.target of its own.
func rewriteNewTarget(body []ast.Stmt, nt string) {
	r := ast.Rewriter{SkipFuncs: true, PostExpr: func(e ast.Expr) ast.Expr {
		if _, ok := e.(*ast.NewTarget); ok {
			return ast.Id(nt)
		}
		return e
	}}
	r.Stmts(body)
}

// ctorReturn rewrites `return e` into the explicit protocol:
//
//	$ctv = e;
//	if ($nt !== undefined && $ctv is not object-like) return this;
//	return $ctv;
func (c *fctx) ctorReturn(s ast.Stmt) ([]ast.Stmt, bool) {
	n, ok := s.(*ast.Return)
	if !ok {
		return nil, true
	}
	return []ast.Stmt{
		ast.ExprOf(ast.SetId(c.ctv, returned(n))),
		ast.IfThen(
			ast.Log("&&",
				ast.Bin("!==", ast.Id(c.nt), ast.Undef()),
				notObjectLike(ast.Id(c.ctv)),
			),
			ast.Ret(&ast.This{}),
		),
		ast.Ret(ast.Id(c.ctv)),
	}, false
}

// returned is the value a return statement returns.
func returned(n *ast.Return) ast.Expr {
	if n.Arg == nil {
		return ast.Undef()
	}
	return n.Arg
}

// notObjectLike builds `(x === null || (typeof x !== "object" && typeof x
// !== "function"))` — the values a constructor's return does not override.
func notObjectLike(x ast.Expr) ast.Expr {
	return ast.Log("||",
		ast.Bin("===", x, &ast.Null{}),
		ast.Log("&&",
			ast.Bin("!==", &ast.Unary{Op: "typeof", X: x}, ast.Strlit("object")),
			ast.Bin("!==", &ast.Unary{Op: "typeof", X: x}, ast.Strlit("function")),
		),
	)
}

// finallyReturns implements the completion-value preservation of §3.1.1:
// inside every `try ... finally`, `return e` becomes
//
//	$finv = e; $finret = 1; return $finv;
//
// so that a continuation captured inside the finalizer can re-enter it by
// re-returning the saved value. Tail calls inside such try blocks become
// named calls (they were never real tail calls — the finalizer runs after).
func (c *fctx) finallyReturns(s ast.Stmt) ([]ast.Stmt, bool) {
	n, ok := s.(*ast.Try)
	if !ok || n.Finally == nil {
		return nil, true
	}
	fi := &finInfo{finret: c.fresh("$finret"), finv: c.fresh("$finv")}
	n.Block.Body = rewriteLists(n.Block.Body, fi.saveReturn)
	if n.Catch != nil {
		n.Catch.Body = rewriteLists(n.Catch.Body, fi.saveReturn)
	}
	c.fin[n] = fi
	return nil, true
}

// finInfo records the completion-saving locals of a try/finally.
type finInfo struct{ finret, finv string }

// saveReturn rewrites a return the finalizer runs after to save its value. A
// nested try-finally saves its own returns, when finallyReturns reaches it.
func (fi *finInfo) saveReturn(s ast.Stmt) ([]ast.Stmt, bool) {
	switch n := s.(type) {
	case *ast.Return:
		return []ast.Stmt{
			ast.ExprOf(ast.SetId(fi.finv, returned(n))),
			ast.ExprOf(ast.SetId(fi.finret, ast.Int(1))),
			&ast.Return{P: n.P, Arg: ast.Id(fi.finv)},
		}, false
	case *ast.Try:
		return nil, n.Finally == nil
	}
	return nil, true
}

// saveShadowDepth gives every try with a catch clause a local that records
// the shadow-stack depth at try entry; the catch handler trims the shadow
// stack back to it, since an exception unwinds past the per-call pops of the
// eager strategy.
func (c *fctx) saveShadowDepth(s ast.Stmt) ([]ast.Stmt, bool) {
	n, ok := s.(*ast.Try)
	if !ok || n.Catch == nil {
		return nil, true
	}
	sd := c.fresh("$sd")
	c.shadowDepth[n] = sd
	return []ast.Stmt{ast.ExprOf(ast.SetId(sd, ast.Dot(ast.IntrinsicShadow.Id(), "length"))), n}, true
}
