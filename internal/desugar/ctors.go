package desugar

import "repro/internal/ast"

// builtinCtors are constructors whose `new` expressions survive desugaring:
// they are implemented natively, terminate trivially, and cannot capture a
// continuation (the paper notes builtins like `new Date()` cannot be
// eliminated, §3.2).
var builtinCtors = map[string]bool{
	"Array": true, "Error": true, "TypeError": true, "RangeError": true,
	"ReferenceError": true, "SyntaxError": true, "Date": true,
	"Object": true, "String": true, "Number": true, "Boolean": true,
}

// lowerCtors implements the "desugar" constructor strategy of §3.2 and
// Figure 2b: `new F(a, b)` becomes `$construct(F, [a, b])`, where
// $construct is a prelude function built on Object.create and apply. The
// alternative ("wrapped") strategy keeps new-expressions and handles them
// dynamically in the instrumentation.
func lowerCtors(body []ast.Stmt, nm *Namer) []ast.Stmt {
	r := &ast.Rewriter{}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		n, ok := e.(*ast.New)
		if !ok {
			return e
		}
		if id, isIdent := n.Callee.(*ast.Ident); isIdent && builtinCtors[id.Name] {
			return n
		}
		return &ast.Call{
			P:      n.P,
			Callee: ast.IntrinsicConstruct.Id(),
			Args:   []ast.Expr{n.Callee, &ast.Array{Elems: n.Args}},
		}
	}
	return r.Stmts(body)
}
