package desugar

import "repro/internal/ast"

// lowerGetters exposes property reads and writes as $get/$set prelude calls
// so that user-defined getters and setters — which may not terminate — run
// as instrumented JavaScript calls (§4.3). Method calls keep their receiver
// binding by hoisting the receiver into a temporary:
//
//	o.m(a)        =>  ($u = o, $get($u, "m").call($u, a))
//	o.f           =>  $get(o, "f")
//	o.f = v       =>  $set(o, "f", v)
//	delete o.f    unchanged (no user code runs)
func lowerGetters(body []ast.Stmt, nm *Namer) []ast.Stmt {
	g := &getterLowerer{nm: nm}
	g.r = ast.Rewriter{SkipFuncs: true, PreExpr: g.access, PostExpr: g.scope}
	body = g.r.Stmts(body)
	return declareTemps(g.temps, body)
}

// getterLowerer lowers one function scope; temps are the receiver
// temporaries it declares at the top of that scope.
type getterLowerer struct {
	nm    *Namer
	temps []string
	r     ast.Rewriter
}

// scope gives every nested function — expression, declaration or accessor —
// a lowerer, and so a temporaries declaration, of its own.
func (g *getterLowerer) scope(e ast.Expr) ast.Expr {
	if fn, ok := e.(*ast.Func); ok {
		fn.Body = lowerGetters(fn.Body, g.nm)
	}
	return e
}

// access takes over the expressions whose member operand is a reference, not
// a read — an assignment's target, a call's callee, delete's operand — and
// turns every other member access into a $get. Operands are lowered in the
// order the fresh temporaries have always been numbered in: an assignment's
// value and a call's arguments before the base and key.
func (g *getterLowerer) access(e ast.Expr) (ast.Expr, bool) {
	switch n := e.(type) {
	case *ast.Member:
		return ast.IntrinsicGet.Call(g.r.Expr(n.X), g.keyExpr(n)), true
	case *ast.Assign:
		m, ok := n.Target.(*ast.Member)
		if !ok {
			return nil, false
		}
		n.Value = g.r.Expr(n.Value)
		return &ast.Call{P: n.P, Callee: ast.IntrinsicSet.Id(), Args: []ast.Expr{g.r.Expr(m.X), g.keyExpr(m), n.Value}}, true
	case *ast.Call:
		for i := range n.Args {
			n.Args[i] = g.r.Expr(n.Args[i])
		}
		m, ok := n.Callee.(*ast.Member)
		if !ok {
			n.Callee = g.r.Expr(n.Callee)
			return n, true
		}
		// Preserve the receiver: ($u = o, $get($u, k).call($u, args...))
		base, key := g.r.Expr(m.X), g.keyExpr(m)
		u := g.nm.Fresh("$u")
		g.temps = append(g.temps, u)
		getCall := ast.IntrinsicGet.Call(ast.Id(u), key)
		callArgs := append([]ast.Expr{ast.Id(u)}, n.Args...)
		invoke := &ast.Call{P: n.P, Callee: &ast.Member{X: getCall, Name: "call"}, Args: callArgs}
		return &ast.Seq{P: n.P, Exprs: []ast.Expr{ast.SetId(u, base), invoke}}, true
	case *ast.Unary:
		// delete must see the raw reference: no user code runs.
		if m, ok := n.X.(*ast.Member); ok && n.Op == "delete" {
			m.X = g.r.Expr(m.X)
			if m.Computed {
				m.Index = g.r.Expr(m.Index)
			}
			return n, true
		}
	}
	return nil, false
}

func (g *getterLowerer) keyExpr(m *ast.Member) ast.Expr {
	if m.Computed {
		return g.r.Expr(m.Index)
	}
	return ast.Strlit(m.Name)
}
