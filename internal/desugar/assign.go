package desugar

import "repro/internal/ast"

// normalizeAssignments rewrites update expressions (++/--) and compound
// assignments (+=, <<=, ...) into plain `=` assignments, hoisting member
// bases and old values into fresh temporaries so every read and write
// happens exactly once and in source order. Later passes (implicit-call
// exposure, getter exposure, A-normalization) then only deal with plain
// reads, writes, and operators.
func normalizeAssignments(body []ast.Stmt, nm *Namer) []ast.Stmt {
	return normalizeScope(body, nm)
}

func normalizeScope(body []ast.Stmt, nm *Namer) []ast.Stmt {
	var temps []string
	r := &ast.Rewriter{SkipFuncs: true}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		switch n := e.(type) {
		case *ast.Func:
			n.Body = normalizeScope(n.Body, nm)
			return n
		case *ast.Update:
			return lowerUpdate(n, nm, &temps)
		case *ast.Assign:
			if n.Op == "=" {
				return n
			}
			return lowerCompound(n, nm, &temps)
		}
		return e
	}
	return declareTemps(temps, r.Stmts(body))
}

// declareTemps puts one `var` for a scope's fresh temporaries at its top.
func declareTemps(temps []string, body []ast.Stmt) []ast.Stmt {
	if len(temps) == 0 {
		return body
	}
	decl := &ast.VarDecl{}
	for _, t := range temps {
		decl.Decls = append(decl.Decls, ast.Declarator{Name: t})
	}
	return append([]ast.Stmt{decl}, body...)
}

func newTemp(nm *Namer, temps *[]string) string {
	t := nm.Fresh("$u")
	*temps = append(*temps, t)
	return t
}

// lowerUpdate rewrites ++/--. The children of n have already been rewritten.
func lowerUpdate(n *ast.Update, nm *Namer, temps *[]string) ast.Expr {
	op := "+"
	if n.Op == "--" {
		op = "-"
	}
	switch target := n.X.(type) {
	case *ast.Ident:
		if n.Prefix {
			// ++x  =>  x = +x + 1  (value: the new value)
			return ast.SetId(target.Name, ast.Bin(op, forceNumber(ast.Id(target.Name)), ast.Int(1)))
		}
		// x++  =>  ($u = +x, x = $u + 1, $u)
		u := newTemp(nm, temps)
		return &ast.Seq{P: n.P, Exprs: []ast.Expr{
			ast.SetId(u, forceNumber(ast.Id(target.Name))),
			ast.SetId(target.Name, ast.Bin(op, ast.Id(u), ast.Int(1))),
			ast.Id(u),
		}}
	case *ast.Member:
		base := newTemp(nm, temps)
		exprs := []ast.Expr{ast.SetId(base, target.X)}
		ref := func() *ast.Member { return &ast.Member{X: ast.Id(base), Name: target.Name} }
		if target.Computed {
			key := newTemp(nm, temps)
			exprs = append(exprs, ast.SetId(key, target.Index))
			ref = func() *ast.Member { return ast.Idx(ast.Id(base), ast.Id(key)) }
		}
		if n.Prefix {
			exprs = append(exprs, ast.SetTo(ref(), ast.Bin(op, forceNumber(ref()), ast.Int(1))))
		} else {
			old := newTemp(nm, temps)
			exprs = append(exprs,
				ast.SetId(old, forceNumber(ref())),
				ast.SetTo(ref(), ast.Bin(op, ast.Id(old), ast.Int(1))),
				ast.Id(old),
			)
		}
		return &ast.Seq{P: n.P, Exprs: exprs}
	}
	return n
}

// forceNumber wraps update-expression reads in unary plus: ++/-- numify
// their operand (`"4"++` yields 5, not "41"). Under the full-implicits
// sub-language the unary plus is itself desugared to an explicit conversion
// call, preserving the "arithmetic can run user code" behaviour of §4.1.
func forceNumber(e ast.Expr) ast.Expr { return &ast.Unary{Op: "+", X: e} }

// lowerCompound rewrites `target op= value` into a plain assignment.
func lowerCompound(n *ast.Assign, nm *Namer, temps *[]string) ast.Expr {
	binOp := n.Op[:len(n.Op)-1]
	switch target := n.Target.(type) {
	case *ast.Ident:
		return ast.SetId(target.Name, ast.Bin(binOp, ast.Id(target.Name), n.Value))
	case *ast.Member:
		base := newTemp(nm, temps)
		exprs := []ast.Expr{ast.SetId(base, target.X)}
		ref := func() *ast.Member { return &ast.Member{X: ast.Id(base), Name: target.Name} }
		if target.Computed {
			key := newTemp(nm, temps)
			exprs = append(exprs, ast.SetId(key, target.Index))
			ref = func() *ast.Member { return ast.Idx(ast.Id(base), ast.Id(key)) }
		}
		exprs = append(exprs, ast.SetTo(ref(), ast.Bin(binOp, ref(), n.Value)))
		return &ast.Seq{P: n.P, Exprs: exprs}
	}
	return n
}
