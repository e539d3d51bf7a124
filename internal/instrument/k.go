package instrument

import (
	"repro/internal/ast"
)

// ---------------------------------------------------------------------------
// Labeling
// ---------------------------------------------------------------------------

// labelSites assigns a unique label to every non-tail application site in
// the body (step 3 of §3.1). Sites are ExprStmt assignments whose value is
// a Call or New; labels are assigned in DFS statement order, so the label
// set of any subtree is a contiguous range.
func (c *fctx) labelSites(body []ast.Stmt) {
	c.nextLabel = 1
	eachApp(func(app ast.Expr) {
		switch v := app.(type) {
		case *ast.Call:
			v.Label = c.nextLabel
			c.nextLabel++
		case *ast.New:
			v.Label = c.nextLabel
			c.nextLabel++
		}
	}, body...)
}

// eachApp calls f with the value of every assignment statement in stmts, in
// DFS statement order. It enters statements only: a site is a statement, and
// a nested function is an expression.
func eachApp(f func(ast.Expr), stmts ...ast.Stmt) {
	visit := func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok {
			if a, ok := es.X.(*ast.Assign); ok {
				f(a.Value)
			}
		}
		_, expr := n.(ast.Expr)
		return !expr
	}
	for _, s := range stmts {
		ast.Walk(s, visit)
	}
}

// labelRange returns the contiguous [lo, hi] label range contained in the
// statements (0, 0 when none).
func labelRange(stmts ...ast.Stmt) (int, int) {
	lo, hi := 0, 0
	eachApp(func(app ast.Expr) {
		if l := siteLabel(app); l != 0 {
			if lo == 0 {
				lo = l
			}
			hi = l
		}
	}, stmts...)
	return lo, hi
}

// labelTest builds the ℓ ∈ s test of Figure 4a for a contiguous range.
func (c *fctx) labelTest(lo, hi int) ast.Expr {
	if lo == 0 {
		return ast.Boollit(false)
	}
	if lo == hi {
		return ast.Bin("===", ast.Id(c.lbl), ast.Int(lo))
	}
	return ast.Log("&&",
		ast.Bin(">=", ast.Id(c.lbl), ast.Int(lo)),
		ast.Bin("<=", ast.Id(c.lbl), ast.Int(hi)),
	)
}

// ---------------------------------------------------------------------------
// The K transform (Figure 4a)
// ---------------------------------------------------------------------------

// kStmts rewrites a statement list. Maximal runs of label-free statements
// are grouped under a single normal-mode guard — semantically identical to
// the paper's per-statement `if (normal)` wrapping, with less interpreter
// overhead.
func (c *fctx) kStmts(body []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	var run []ast.Stmt
	flush := func() {
		if len(run) == 0 {
			return
		}
		out = append(out, ast.IfThen(isMode(ast.ModeNormal), run...))
		run = nil
	}
	for _, s := range body {
		if c.opts.PerStatementGuards {
			flush()
		}
		if site, ok := callSite(s); ok {
			flush()
			out = append(out, c.site(site))
			continue
		}
		if lo, _ := labelRange(s); lo != 0 {
			flush()
			out = append(out, c.kCompound(s))
			continue
		}
		if fd, ok := s.(*ast.FuncDecl); ok {
			// Hoisted declarations execute before the prologue; keep them
			// outside guards so the binding exists in every mode.
			flush()
			out = append(out, fd)
			continue
		}
		run = append(run, s)
	}
	flush()
	return out
}

// callSite recognizes a labeled application statement.
func callSite(s ast.Stmt) (*ast.ExprStmt, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	a, ok := es.X.(*ast.Assign)
	if !ok {
		return nil, false
	}
	return es, siteLabel(a.Value) != 0
}

// siteLabel is the label of an application, 0 when it has none or e is not
// one.
func siteLabel(e ast.Expr) int {
	switch v := e.(type) {
	case *ast.Call:
		return v.Label
	case *ast.New:
		return v.Label
	}
	return 0
}

// kCompound rewrites a label-containing compound statement.
func (c *fctx) kCompound(s ast.Stmt) ast.Stmt {
	switch n := s.(type) {
	case *ast.Block:
		return &ast.Block{P: n.P, Body: c.kStmts(n.Body)}
	case *ast.Labeled:
		return &ast.Labeled{P: n.P, Label: n.Label, Body: c.kCompoundOrSite(n.Body)}
	case *ast.If:
		consLo, consHi := labelRange(n.Cons)
		test := ast.Log("&&", isMode(ast.ModeNormal), n.Test)
		var fullTest ast.Expr = test
		if consLo != 0 {
			fullTest = ast.Log("||", test, c.labelTest(consLo, consHi))
		}
		cons := c.kCompoundOrSite(n.Cons)
		if n.Alt == nil {
			return &ast.If{P: n.P, Test: fullTest, Cons: cons}
		}
		altLo, altHi := labelRange(n.Alt)
		var altGuard ast.Expr = isMode(ast.ModeNormal)
		if altLo != 0 {
			altGuard = ast.Log("||", altGuard, c.labelTest(altLo, altHi))
		}
		alt := ast.IfThen(altGuard, c.kCompoundOrSite(n.Alt))
		return &ast.If{P: n.P, Test: fullTest, Cons: cons, Alt: alt}
	case *ast.While:
		lo, hi := labelRange(n.Body)
		test := ast.Log("||",
			ast.Log("&&", isMode(ast.ModeNormal), n.Test),
			c.labelTest(lo, hi),
		)
		return &ast.While{P: n.P, Test: test, Body: c.kCompoundOrSite(n.Body)}
	case *ast.Try:
		return c.kTry(n)
	default:
		// A label-containing statement can only be one of the forms above.
		panic("instrument: unexpected label-containing statement")
	}
}

// kCompoundOrSite dispatches a nested statement that may itself be a call
// site, a label-containing compound, or plain code.
func (c *fctx) kCompoundOrSite(s ast.Stmt) ast.Stmt {
	if site, ok := callSite(s); ok {
		return c.site(site)
	}
	if lo, _ := labelRange(s); lo != 0 {
		return c.kCompound(s)
	}
	return ast.IfThen(isMode(ast.ModeNormal), s)
}

// kTry implements the try/catch/finally re-entry machinery of §3.1.1.
func (c *fctx) kTry(n *ast.Try) ast.Stmt {
	blockLo, blockHi := labelRange(stmtsOf(n.Block)...)
	var catchLo, catchHi, finLo, finHi int
	if n.Catch != nil {
		catchLo, catchHi = labelRange(stmtsOf(n.Catch)...)
	}
	if n.Finally != nil {
		finLo, finHi = labelRange(stmtsOf(n.Finally)...)
	}

	var tryBody []ast.Stmt

	// Re-enter the catch clause by re-throwing the saved exception.
	if catchLo != 0 {
		tryBody = append(tryBody, ast.IfThen(
			ast.Log("&&", isMode(ast.ModeRestore), c.labelTest(catchLo, catchHi)),
			&ast.Throw{Arg: ast.Id(n.CatchParam)},
		))
	}
	// Re-enter the finalizer: when the try completed with a return, re-raise
	// that completion; otherwise fall through and let the finalizer run.
	if finLo != 0 {
		fi := c.fin[n]
		if fi != nil {
			tryBody = append(tryBody, ast.IfThen(
				ast.Log("&&",
					ast.Log("&&", isMode(ast.ModeRestore), c.labelTest(finLo, finHi)),
					ast.Bin("===", ast.Id(fi.finret), ast.Int(1)),
				),
				ast.Ret(ast.Id(fi.finv)),
			))
		}
	}
	guard := isMode(ast.ModeNormal)
	if blockLo != 0 {
		guard = ast.Log("||", guard, ast.Log("&&", isMode(ast.ModeRestore), c.labelTest(blockLo, blockHi)))
	}
	tryBody = append(tryBody, ast.IfThen(guard, c.kStmts(n.Block.Body)...))

	out := &ast.Try{P: n.P, Block: ast.BlockOf(tryBody...)}

	// A call re-entered by a restore leaves $lbl at its label until the call
	// site's own reset, which a throw out of the callee skips: a handler that
	// runs in normal mode clears it, or an enclosing loop's label test would
	// send control into the body once more. In restore mode the handler keeps
	// it — its own re-entry is what the label is steering.
	resetLbl := func() ast.Stmt {
		return ast.IfThen(isMode(ast.ModeNormal), ast.ExprOf(ast.SetId(c.lbl, ast.Int(-1))))
	}
	if n.Catch != nil {
		catchBody := []ast.Stmt{
			ast.IfThen(ast.IntrinsicIsSig.Call(ast.Id(c.ct)), &ast.Throw{Arg: ast.Id(c.ct)}),
			resetLbl(),
		}
		if c.opts.Strategy == Eager {
			if sd := c.shadowDepth[n]; sd != "" {
				catchBody = append(catchBody, ast.ExprOf(ast.SetTo(
					ast.Dot(ast.IntrinsicShadow.Id(), "length"), ast.Id(sd))))
			}
		}
		catchBody = append(catchBody, ast.ExprOf(ast.SetId(n.CatchParam, ast.Id(c.ct))))
		catchBody = append(catchBody, c.kStmts(n.Catch.Body)...)
		out.CatchParam = c.ct
		out.Catch = ast.BlockOf(catchBody...)
	}
	if n.Finally != nil {
		out.Finally = ast.BlockOf(append([]ast.Stmt{resetLbl()}, c.kStmts(n.Finally.Body)...)...)
	}
	return out
}

func stmtsOf(b *ast.Block) []ast.Stmt {
	if b == nil {
		return nil
	}
	return b.Body
}

// ---------------------------------------------------------------------------
// The A transform (Figure 4 b/c/d)
// ---------------------------------------------------------------------------

// site rewrites one labeled application statement per the selected
// strategy.
func (c *fctx) site(es *ast.ExprStmt) ast.Stmt {
	a := es.X.(*ast.Assign)
	label := siteLabel(a.Value)

	guard := ast.Log("||", isMode(ast.ModeNormal), ast.Bin("===", ast.Id(c.lbl), ast.Int(label)))

	// target = $mode === "normal" ? <app> : $k[1].apply($k[2]); — the
	// callee's prologue reassigns its saved locals from its frame $k, and
	// nothing reads a formal it does not save, so only varargs' arguments
	// object is left to pass.
	reapply := []ast.Expr{c.frameElem(FrameSelf)}
	if c.opts.Args == ArgsVarargs {
		reapply = append(reapply, c.frameElem(FrameArgs))
	}
	apply := ast.ExprOf(ast.SetTo(a.Target, &ast.Cond{
		Test: isMode(ast.ModeNormal),
		Cons: a.Value,
		Alt:  frameCall(c.frameElem(FrameFn), "apply", reapply...),
	}))
	clearLbl := ast.ExprOf(ast.SetId(c.lbl, ast.Int(-1)))

	switch c.opts.Strategy {
	case Checked:
		site := ast.IfThen(guard,
			apply,
			ast.IfThen(isMode(ast.ModeCapture),
				c.pushFrame(ast.IntrinsicStack, label),
				&ast.Return{},
			),
			clearLbl,
		)
		site.Site = true // the bytecode compiler fuses its normal-mode path
		return site
	case Exceptional:
		handler := ast.BlockOf(
			ast.IfThen(ast.IntrinsicIsCap.Call(ast.Id("$e")), c.pushFrame(ast.IntrinsicStack, label)),
			&ast.Throw{Arg: ast.Id("$e")},
		)
		try := &ast.Try{
			Block:      ast.BlockOf(apply, clearLbl),
			CatchParam: "$e",
			Catch:      handler,
		}
		return ast.IfThen(guard, try)
	case Eager:
		return ast.IfThen(guard,
			c.pushFrame(ast.IntrinsicShadow, label),
			apply,
			clearLbl,
			ast.ExprOf(frameCall(ast.IntrinsicShadow.Id(), "pop")),
		)
	}
	panic("instrument: unknown strategy")
}

// pushFrame emits the reified continuation frame; where Figure 3 line 17
// stores a reenter thunk, it stores what the thunk would close over:
//
//	<stack>.push([j, F, this, (arguments,) l1, ...])
//
// The saved locals l1, ... are savedLocals', which the prologue restores.
// Data creates no closure, so a captured activation's environment is not
// marked escaped (interp.makeFunction) and returns to the frame pool when
// the unwind leaves it. One array is one object and its elements: the
// frame's two allocations. The eager strategy pays the frame on every call:
// that is its cost model.
func (c *fctx) pushFrame(stack ast.Intrinsic, label int) ast.Stmt {
	elems := make([]ast.Expr, 0, c.savedBase()+len(c.saved))
	elems = append(elems, ast.Int(label), ast.Id(c.fname), &ast.This{})
	if c.opts.Args == ArgsVarargs {
		elems = append(elems, ast.Id("arguments"))
	}
	for _, name := range c.saved {
		elems = append(elems, ast.Id(name))
	}
	return ast.ExprOf(frameCall(stack.Id(), "push", &ast.Array{Elems: elems}))
}

// savedBase is the index of a frame's first saved local.
func (c *fctx) savedBase() int {
	if c.opts.Args == ArgsVarargs {
		return FrameArgs + 1
	}
	return FrameArgs
}

// frameElem builds $k[i], an element of the frame being restored.
func (c *fctx) frameElem(i int) ast.Expr {
	return &ast.Member{X: ast.Id(c.k), Index: ast.Int(i), Computed: true}
}

// frameCall builds x.method(args...) marked as frame protocol: the bytecode
// engine runs it without reading method, which a guest may have replaced
// (ast.Member.Frame).
func frameCall(x ast.Expr, method string, args ...ast.Expr) *ast.Call {
	m := ast.Dot(x, method)
	m.Frame = true
	return ast.CallN(m, args...)
}
