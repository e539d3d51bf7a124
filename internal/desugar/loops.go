package desugar

import (
	"slices"

	"repro/internal/ast"
)

// lowerLoops rewrites for / do-while / for-in into while loops and switch
// into a guarded if-chain, in every function. After this pass the only
// looping construct is While and the only fall-through construct is gone,
// which is what the A-normalizer and the instrumentation assume.
func lowerLoops(body []ast.Stmt, nm *Namer) []ast.Stmt {
	l := &loopLowerer{nm: nm}
	l.rw.PreStmt = l.lower
	return l.rw.Stmts(body)
}

type loopLowerer struct {
	nm *Namer
	rw ast.Rewriter
	// labels are those attached directly to the statement PreStmt sees
	// next, by the Labeled nodes just above it.
	labels []string
}

// lower is the rewrite's PreStmt. It takes over each form it lowers and
// rewrites that form's parts itself, in the order its fresh names have
// always been drawn in: a while's body before its test, a for's body, update,
// test, then init.
func (l *loopLowerer) lower(s ast.Stmt) (ast.Stmt, bool) {
	labels := l.labels
	l.labels = nil
	switch n := s.(type) {
	case *ast.Labeled:
		l.labels = append(labels, n.Label)
	case *ast.For:
		return l.lowerFor(n, labels), true
	case *ast.DoWhile:
		return l.lowerDoWhile(n, labels), true
	case *ast.ForIn:
		return l.lowerForIn(n, labels), true
	case *ast.Switch:
		return l.lowerSwitch(n), true
	case *ast.While:
		n.Body = l.rw.Stmt(n.Body)
		n.Test = l.rw.Expr(n.Test)
		return n, true
	}
	return nil, false
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
func (l *loopLowerer) lowerFor(n *ast.For, labels []string) ast.Stmt {
	blockLabel := l.nm.Fresh("$L")
	body := l.rw.Stmt(rewriteContinues(n.Body, labels, blockLabel))

	inner := []ast.Stmt{&ast.Labeled{Label: blockLabel, Body: asBlock(body)}}
	if n.Update != nil {
		inner = append(inner, ast.ExprOf(l.rw.Expr(n.Update)))
	}
	test := n.Test
	if test == nil {
		test = ast.Boollit(true)
	}
	loop := &ast.While{P: n.P, Test: l.rw.Expr(test), Body: ast.BlockOf(inner...)}

	var out []ast.Stmt
	if n.Init != nil {
		out = append(out, l.rw.Stmt(n.Init))
	}
	out = append(out, loop)
	return ast.BlockOf(out...)
}

// lowerDoWhile rewrites `do body while (test)` into
//
//	while (true) { $L: { body' } if (!(test)) break; }
func (l *loopLowerer) lowerDoWhile(n *ast.DoWhile, labels []string) ast.Stmt {
	blockLabel := l.nm.Fresh("$L")
	body := l.rw.Stmt(rewriteContinues(n.Body, labels, blockLabel))
	n.Test = l.rw.Expr(n.Test)
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
// $forInKeys(obj): the intrinsic that lists what the engines' own for-in
// visits (interp.InstallDesugarNatives), which a guest can neither replace,
// as it can Object.keys, nor shadow.
func (l *loopLowerer) lowerForIn(n *ast.ForIn, labels []string) ast.Stmt {
	blockLabel := l.nm.Fresh("$L")
	keys := l.nm.Fresh("$ks")
	idx := l.nm.Fresh("$i")
	body := l.rw.Stmt(rewriteContinues(n.Body, labels, blockLabel))
	n.Obj = l.rw.Expr(n.Obj)

	var out []ast.Stmt
	if n.Decl {
		out = append(out, ast.Var(n.Name, nil))
	}
	out = append(out,
		ast.Var(keys, ast.IntrinsicForInKeys.Call(n.Obj)),
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
func (l *loopLowerer) lowerSwitch(n *ast.Switch) ast.Stmt {
	blockLabel := l.nm.Fresh("$L")
	d := l.nm.Fresh("$d")
	m := l.nm.Fresh("$m")
	n.Disc = l.rw.Expr(n.Disc)

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
		chain = ast.IfElse(
			ast.Bin("===", ast.Id(d), l.rw.Expr(c.Test)),
			ast.ExprOf(ast.SetId(m, ast.Int(i))),
			chain,
		)
	}

	var guarded []ast.Stmt
	breaks := switchBreaks(blockLabel)
	for i, c := range n.Cases {
		body := make([]ast.Stmt, len(c.Body))
		for j, s := range c.Body {
			body[j] = l.rw.Stmt(breaks.Stmt(s))
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
