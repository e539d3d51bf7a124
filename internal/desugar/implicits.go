package desugar

import "repro/internal/ast"

// implicitBinFns maps operators that can trigger valueOf/toString on object
// operands to the prelude functions that perform the conversion explicitly
// (§4.1). The prelude defines these in plain JavaScript, so the implicit
// calls become ordinary instrumented applications that can capture
// continuations — which is exactly why full implicits are expensive
// (Figure 2a).
var implicitBinFns = map[string]ast.Intrinsic{
	"+":  ast.IntrinsicAdd,
	"-":  ast.IntrinsicSub,
	"*":  ast.IntrinsicMul,
	"/":  ast.IntrinsicDiv,
	"%":  ast.IntrinsicMod,
	"<":  ast.IntrinsicLt,
	"<=": ast.IntrinsicLe,
	">":  ast.IntrinsicGt,
	">=": ast.IntrinsicGe,
	"==": ast.IntrinsicEq,
	"!=": ast.IntrinsicNe,
}

// lowerImplicits rewrites arithmetic to explicit prelude calls. In
// ImplicitsPlus mode only + is rewritten (string concatenation may call
// toString — the JSweet/Java sub-language); in ImplicitsFull mode every
// conversion site is exposed.
func lowerImplicits(body []ast.Stmt, mode ImplicitsMode, nm *Namer) []ast.Stmt {
	r := &ast.Rewriter{}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		switch n := e.(type) {
		case *ast.Binary:
			fn, ok := implicitBinFns[n.Op]
			if !ok {
				return n
			}
			if mode == ImplicitsPlus && n.Op != "+" {
				return n
			}
			if literalOperand(n.L) && literalOperand(n.R) {
				return n // constants cannot be objects
			}
			return &ast.Call{P: n.P, Callee: fn.Id(), Args: []ast.Expr{n.L, n.R}}
		case *ast.Unary:
			if mode != ImplicitsFull {
				return n
			}
			switch n.Op {
			case "-":
				if literalOperand(n.X) {
					return n
				}
				return &ast.Call{P: n.P, Callee: ast.IntrinsicNeg.Id(), Args: []ast.Expr{n.X}}
			case "+":
				if literalOperand(n.X) {
					return n
				}
				return &ast.Call{P: n.P, Callee: ast.IntrinsicToNum.Id(), Args: []ast.Expr{n.X}}
			}
			return n
		}
		return e
	}
	return r.Stmts(body)
}

// literalOperand reports expressions that can never be objects, where the
// implicit-conversion rewrite would be pure overhead.
func literalOperand(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Number, *ast.Str, *ast.Bool, *ast.Null:
		return true
	}
	return false
}
