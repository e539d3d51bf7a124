package desugar

import "repro/internal/ast"

// insertBreakpoints inserts $bp(line) before every statement that has a
// known source position (§5.2: "it does this by instrumenting the program
// to invoke maySuspend before every statement"), in every function. The line
// numbers refer to the original source — the same role source maps play for
// Stopify — so an IDE can set breakpoints and single-step in user
// coordinates. A lone statement child (an if branch, a loop body) that gains
// its $bp becomes a block; a label and its statement stay adjacent.
//
// This pass must run first, while every node still carries its original
// position.
func insertBreakpoints(body []ast.Stmt) []ast.Stmt {
	labeled := false // the statement offered next is a label's body
	r := ast.Rewriter{
		Expand: func(s ast.Stmt) ([]ast.Stmt, bool) {
			if p := s.Position(); p.Known() && !labeled {
				return []ast.Stmt{ast.ExprOf(ast.IntrinsicBp.Call(ast.Int(p.Line))), s}, true
			}
			return nil, true
		},
		PreStmt: func(s ast.Stmt) (ast.Stmt, bool) {
			_, labeled = s.(*ast.Labeled)
			return nil, false
		},
	}
	return r.Stmts(body)
}
