package desugar

import (
	"slices"

	"repro/internal/ast"
)

// lowerLoopsStmts rewrites for / do-while / for-in into while loops and
// switch into a guarded if-chain, recursively. After this pass the only
// looping construct is While and the only fall-through construct is gone,
// which is what the A-normalizer and the instrumentation assume.
func lowerLoopsStmts(body []ast.Stmt, nm *Namer) []ast.Stmt {
	out := make([]ast.Stmt, len(body))
	for i, s := range body {
		out[i] = lowerLoopStmt(s, nil, nm)
	}
	return out
}

// lowerLoopStmt lowers one statement; labels carries the label names
// attached directly to this statement via enclosing Labeled nodes.
func lowerLoopStmt(s ast.Stmt, labels []string, nm *Namer) ast.Stmt {
	switch n := s.(type) {
	case *ast.Labeled:
		inner := lowerLoopStmt(n.Body, append(labels, n.Label), nm)
		return &ast.Labeled{P: n.P, Label: n.Label, Body: inner}
	case *ast.For:
		return lowerFor(n, labels, nm)
	case *ast.DoWhile:
		return lowerDoWhile(n, labels, nm)
	case *ast.ForIn:
		return lowerForIn(n, labels, nm)
	case *ast.Switch:
		return lowerSwitch(n, nm)
	case *ast.While:
		n.Body = lowerLoopStmt(n.Body, nil, nm)
		lowerLoopsInExprs(n.Test, nm)
		return n
	case *ast.Block:
		for i := range n.Body {
			n.Body[i] = lowerLoopStmt(n.Body[i], nil, nm)
		}
		return n
	case *ast.If:
		lowerLoopsInExprs(n.Test, nm)
		n.Cons = lowerLoopStmt(n.Cons, nil, nm)
		if n.Alt != nil {
			n.Alt = lowerLoopStmt(n.Alt, nil, nm)
		}
		return n
	case *ast.Try:
		n.Block.Body = lowerLoopsStmts(n.Block.Body, nm)
		if n.Catch != nil {
			n.Catch.Body = lowerLoopsStmts(n.Catch.Body, nm)
		}
		if n.Finally != nil {
			n.Finally.Body = lowerLoopsStmts(n.Finally.Body, nm)
		}
		return n
	case *ast.FuncDecl:
		n.Fn.Body = lowerLoopsStmts(n.Fn.Body, nm)
		return n
	case *ast.VarDecl:
		for i := range n.Decls {
			lowerLoopsInExprs(n.Decls[i].Init, nm)
		}
		return n
	case *ast.ExprStmt:
		lowerLoopsInExprs(n.X, nm)
		return n
	case *ast.Return:
		lowerLoopsInExprs(n.Arg, nm)
		return n
	case *ast.Throw:
		lowerLoopsInExprs(n.Arg, nm)
		return n
	default:
		return s
	}
}

// lowerLoopsInExprs lowers loops inside function literals embedded in an
// expression.
func lowerLoopsInExprs(e ast.Expr, nm *Namer) {
	if e == nil {
		return
	}
	ast.Walk(e, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok {
			fn.Body = lowerLoopsStmts(fn.Body, nm)
			return false
		}
		return true
	})
}

// lowerFor rewrites
//
//	for (init; test; update) body
//
// into
//
//	{ init; while (test) { $L: { body' } update; } }
//
// where body' has `continue` (and labeled continues naming this loop)
// rewritten to `break $L`, so the update expression always runs.
func lowerFor(n *ast.For, labels []string, nm *Namer) ast.Stmt {
	blockLabel := nm.Fresh("$L")
	body := rewriteContinues(n.Body, labels, blockLabel)
	body = lowerLoopStmt(body, nil, nm)

	inner := []ast.Stmt{&ast.Labeled{Label: blockLabel, Body: asBlock(body)}}
	if n.Update != nil {
		lowerLoopsInExprs(n.Update, nm)
		inner = append(inner, ast.ExprOf(n.Update))
	}
	test := n.Test
	if test == nil {
		test = ast.Boollit(true)
	}
	lowerLoopsInExprs(test, nm)
	loop := &ast.While{P: n.P, Test: test, Body: ast.BlockOf(inner...)}

	var out []ast.Stmt
	if n.Init != nil {
		init := lowerLoopStmt(n.Init, nil, nm)
		out = append(out, init)
	}
	out = append(out, loop)
	return ast.BlockOf(out...)
}

// lowerDoWhile rewrites `do body while (test)` into
//
//	while (true) { $L: { body' } if (!(test)) break; }
func lowerDoWhile(n *ast.DoWhile, labels []string, nm *Namer) ast.Stmt {
	blockLabel := nm.Fresh("$L")
	body := rewriteContinues(n.Body, labels, blockLabel)
	body = lowerLoopStmt(body, nil, nm)
	lowerLoopsInExprs(n.Test, nm)
	return &ast.While{
		P:    n.P,
		Test: ast.Boollit(true),
		Body: ast.BlockOf(
			&ast.Labeled{Label: blockLabel, Body: asBlock(body)},
			ast.IfThen(ast.Not(n.Test), &ast.Break{}),
		),
	}
}

// lowerForIn rewrites `for (k in obj) body` into a while loop over
// $forInKeys(obj): the native that lists what the engines' own for-in visits
// (interp.InstallDesugarNatives), which a guest cannot replace as it can
// Object.keys.
func lowerForIn(n *ast.ForIn, labels []string, nm *Namer) ast.Stmt {
	blockLabel := nm.Fresh("$L")
	keys := nm.Fresh("$ks")
	idx := nm.Fresh("$i")
	body := rewriteContinues(n.Body, labels, blockLabel)
	body = lowerLoopStmt(body, nil, nm)
	lowerLoopsInExprs(n.Obj, nm)

	var out []ast.Stmt
	if n.Decl {
		out = append(out, ast.Var(n.Name, nil))
	}
	out = append(out,
		ast.Var(keys, ast.CallId("$forInKeys", n.Obj)),
		ast.Var(idx, ast.Int(0)),
		&ast.While{
			Test: ast.Bin("<", ast.Id(idx), ast.Dot(ast.Id(keys), "length")),
			Body: ast.BlockOf(
				ast.ExprOf(ast.SetId(n.Name, ast.Idx(ast.Id(keys), ast.Id(idx)))),
				ast.ExprOf(ast.SetId(idx, ast.Bin("+", ast.Id(idx), ast.Int(1)))),
				&ast.Labeled{Label: blockLabel, Body: asBlock(body)},
			),
		},
	)
	return ast.BlockOf(out...)
}

// lowerSwitch rewrites switch into a match-index computation followed by
// fall-through guarded bodies inside a labeled block:
//
//	{ var $d = disc; var $m = BIG;
//	  if ($d === t0) $m = 0; else if ...; else $m = defaultIndex;
//	  $L: { if ($m <= 0) { body0 } if ($m <= 1) { body1 } ... } }
func lowerSwitch(n *ast.Switch, nm *Namer) ast.Stmt {
	blockLabel := nm.Fresh("$L")
	d := nm.Fresh("$d")
	m := nm.Fresh("$m")
	lowerLoopsInExprs(n.Disc, nm)

	defaultIdx := len(n.Cases) // past the end: no case runs
	for i, c := range n.Cases {
		if c.Test == nil {
			defaultIdx = i
		}
	}

	// Build the match chain, skipping the default clause.
	var chain ast.Stmt = ast.ExprOf(ast.SetId(m, ast.Int(defaultIdx)))
	for i := len(n.Cases) - 1; i >= 0; i-- {
		c := n.Cases[i]
		if c.Test == nil {
			continue
		}
		lowerLoopsInExprs(c.Test, nm)
		chain = ast.IfElse(
			ast.Bin("===", ast.Id(d), c.Test),
			ast.ExprOf(ast.SetId(m, ast.Int(i))),
			chain,
		)
	}

	var guarded []ast.Stmt
	breaks := switchBreaks(blockLabel)
	for i, c := range n.Cases {
		body := make([]ast.Stmt, len(c.Body))
		for j, s := range c.Body {
			body[j] = lowerLoopStmt(breaks.Stmt(s), nil, nm)
		}
		guarded = append(guarded, ast.IfThen(
			ast.Bin("<=", ast.Id(m), ast.Int(i)),
			body...,
		))
	}

	return ast.BlockOf(
		ast.Var(d, n.Disc),
		ast.Var(m, nil),
		chain,
		&ast.Labeled{Label: blockLabel, Body: ast.BlockOf(guarded...)},
	)
}

func asBlock(s ast.Stmt) ast.Stmt {
	if _, ok := s.(*ast.Block); ok {
		return s
	}
	return ast.BlockOf(s)
}

func isLoop(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.While, *ast.DoWhile, *ast.For, *ast.ForIn:
		return true
	}
	return false
}

// rewriteContinues replaces `continue` statements that target the loop being
// desugared (unlabeled ones outside nested loops, and labeled ones naming
// one of loopLabels at any depth) with `break target`.
func rewriteContinues(s ast.Stmt, loopLabels []string, target string) ast.Stmt {
	nested := 0 // loops entered below s: an unlabeled continue there is theirs
	r := ast.Rewriter{PreExpr: ast.StmtsOnly}
	r.PreStmt = func(s ast.Stmt) (ast.Stmt, bool) {
		switch n := s.(type) {
		case *ast.Continue:
			if n.Label == "" && nested == 0 || slices.Contains(loopLabels, n.Label) {
				return &ast.Break{P: n.P, Label: target}, true
			}
		case *ast.FuncDecl:
			return s, true
		}
		if isLoop(s) {
			nested++
		}
		return nil, false
	}
	r.PostStmt = func(s ast.Stmt) ast.Stmt {
		if isLoop(s) {
			nested--
		}
		return s
	}
	return r.Stmt(s)
}

// switchBreaks returns the rewriter that replaces the unlabeled `break`
// statements targeting the switch being desugared with `break target`.
// Nested loops and switches capture theirs, so it stays out of them.
func switchBreaks(target string) *ast.Rewriter {
	return &ast.Rewriter{PreExpr: ast.StmtsOnly, PreStmt: func(s ast.Stmt) (ast.Stmt, bool) {
		switch n := s.(type) {
		case *ast.Break:
			if n.Label == "" {
				return &ast.Break{P: n.P, Label: target}, true
			}
		case *ast.Switch, *ast.FuncDecl, *ast.While, *ast.DoWhile, *ast.For, *ast.ForIn:
			return s, true
		}
		return nil, false
	}}
}
