package desugar

import "repro/internal/ast"

// insertSuspend inserts a $suspend() call at the top of every function body
// and every loop body (§5.1: "Stopify instruments p such that every
// function and loop calls the maySuspend function"). $suspend is a runtime
// primitive that estimates elapsed time and, when the yield interval has
// passed — or a pause, breakpoint, or stack-depth limit demands it —
// captures the continuation and schedules its resumption on the event loop.
//
// It runs after loop lowering, so While is the only loop form.
func insertSuspend(body []ast.Stmt) []ast.Stmt {
	r := &ast.Rewriter{}
	r.PostStmt = func(s ast.Stmt) ast.Stmt {
		if n, ok := s.(*ast.While); ok {
			n.Body = prependSuspend(n.Body)
		}
		return s
	}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		// Declarations and expressions alike: the rewriter offers both here.
		if fn, ok := e.(*ast.Func); ok {
			fn.Body = append([]ast.Stmt{suspendCall()}, fn.Body...)
		}
		return e
	}
	return r.Stmts(body)
}

func suspendCall() ast.Stmt { return ast.ExprOf(ast.IntrinsicSuspend.Call()) }

func prependSuspend(body ast.Stmt) ast.Stmt {
	if b, ok := body.(*ast.Block); ok {
		b.Body = append([]ast.Stmt{suspendCall()}, b.Body...)
		return b
	}
	return ast.BlockOf(suspendCall(), body)
}
