package desugar

import "repro/internal/ast"

// lowerArrows converts arrow functions into ordinary function expressions.
// Arrows differ in two ways: lexical `this` and no own `arguments`. The pass
// rewrites those references inside arrow bodies to $this/$args locals
// introduced in the nearest enclosing non-arrow scope, suffixed when the
// guest has a name of its own so spelled.
//
// topLevel indicates body is the program top level (its `this` is
// undefined, but a $this binding is still introduced if needed so the
// rewritten code is closed).
func lowerArrows(body []ast.Stmt, nm *Namer, topLevel bool) []ast.Stmt {
	needThis, needArgs := false, false
	r := &ast.Rewriter{SkipFuncs: true}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		fn, ok := e.(*ast.Func)
		if !ok {
			return e
		}
		if fn.Arrow {
			t, a := rewriteArrowRefs(fn, nm)
			needThis = needThis || t
			needArgs = needArgs || a
			fn.Arrow = false
		}
		// Non-arrow (or just-converted) function: a fresh scope.
		fn.Body = lowerArrows(fn.Body, nm, false)
		return fn
	}
	out := r.Stmts(body)
	var prologue []ast.Stmt
	if needThis {
		prologue = append(prologue, ast.Var(nm.guest.Avoid("$this"), &ast.This{}))
	}
	if needArgs && !topLevel {
		prologue = append(prologue, ast.Var(nm.guest.Avoid("$args"), ast.Id("arguments")))
	}
	if len(prologue) > 0 {
		out = append(prologue, out...)
	}
	return out
}

// rewriteArrowRefs rewrites this -> $this and arguments -> $args inside an
// arrow body, descending through nested arrows (same lexical this) but not
// into nested ordinary functions. It reports whether each rewrite occurred.
func rewriteArrowRefs(fn *ast.Func, nm *Namer) (usedThis, usedArgs bool) {
	this, args := nm.guest.Avoid("$this"), nm.guest.Avoid("$args")
	r := &ast.Rewriter{SkipFuncs: true}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		switch n := e.(type) {
		case *ast.This:
			usedThis = true
			return &ast.Ident{P: n.P, Name: this}
		case *ast.Ident:
			if n.Name == "arguments" {
				usedArgs = true
				return &ast.Ident{P: n.P, Name: args}
			}
			return n
		case *ast.Func:
			if n.Arrow {
				t, a := rewriteArrowRefs(n, nm)
				usedThis = usedThis || t
				usedArgs = usedArgs || a
				n.Arrow = false
			}
			// An ordinary nested function re-binds this/arguments; leave its
			// body for the enclosing lowerArrows recursion to process.
			return n
		}
		return e
	}
	fn.Body = r.Stmts(fn.Body)
	return usedThis, usedArgs
}

// nameFunctions assigns fresh names to anonymous function expressions. A
// captured frame records its function by name (fn: F, where Figure 3's
// reenter thunk calls F), so every function needs one.
func nameFunctions(prog *ast.Program, nm *Namer) {
	ast.Walk(prog, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok && fn.Name == "" {
			fn.Name = nm.Fresh("$f")
			fn.Self = fn.Name
		}
		return true
	})
}
