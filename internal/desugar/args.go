package desugar

import (
	"maps"

	"repro/internal/ast"
)

// lowerArgsFull implements the complete-arguments sub-language of §4.2:
// every reference to a formal parameter is rewritten to an index into the
// arguments object, so parameter/arguments aliasing behaves exactly as in
// sloppy-mode JavaScript even across continuation capture and restore (the
// whole arguments object travels in the reified frame). Only JavaScript
// itself needs this (Figure 5).
func lowerArgsFull(prog *ast.Program) {
	// Top level has no parameters; process every function. An alias takes
	// no guest name either.
	taken := ast.Names{}
	maps.Copy(taken, prog.Guest)
	lowerArgsIn(prog, taken)
}

// lowerArgsIn lowers every function below n, outermost first. taken holds the
// guest's `$` names and the $outerargs aliases n and its ancestors declared:
// a descendant reads its ancestors' formals through them, so its own alias
// may not shadow one.
func lowerArgsIn(n ast.Node, taken ast.Names) {
	ast.Walk(n, func(c ast.Node) bool {
		fn, ok := c.(*ast.Func)
		if !ok || c == n {
			return true
		}
		alias := ""
		if !fn.Arrow {
			alias = rewriteParamsToArguments(fn, taken)
		}
		if alias != "" {
			taken[alias] = true
		}
		lowerArgsIn(fn, taken)
		delete(taken, alias)
		return false
	})
}

// rewriteParamsToArguments returns the alias of fn's arguments object it
// declared for fn's nested functions, "" when none of them names a formal.
func rewriteParamsToArguments(fn *ast.Func, taken ast.Names) string {
	if len(fn.Params) == 0 {
		return ""
	}
	alias := taken.Avoid("$outerargs")
	index := make(map[string]int, len(fn.Params))
	for i, p := range fn.Params {
		index[p] = i
	}
	nestedRewrites := false
	r := &ast.Rewriter{SkipFuncs: true}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		switch n := e.(type) {
		case *ast.Ident:
			if i, ok := index[n.Name]; ok {
				return ast.Idx(ast.Id("arguments"), ast.Int(i))
			}
			return n
		case *ast.Func:
			// A nested function re-binds `arguments`, so references it makes
			// to the outer formals go through a $outerargs alias introduced
			// in this function's prologue.
			if rewriteFreeParams(n, index, alias) {
				nestedRewrites = true
			}
			return n
		}
		return e
	}
	fn.Body = r.Stmts(fn.Body)
	if !nestedRewrites {
		return ""
	}
	fn.Body = append([]ast.Stmt{ast.Var(alias, ast.Id("arguments"))}, fn.Body...)
	return alias
}

// rewriteFreeParams rewrites references to outer formals inside a nested
// function, skipping names the nested function rebinds. `arguments` inside
// the nested function refers to its own object, so outer-formal references
// cannot be expressed through it; they are rewritten to alias[i], a binding
// introduced in the outer function prologue. It reports whether any rewrite
// occurred.
func rewriteFreeParams(fn *ast.Func, outer map[string]int, alias string) bool {
	shadowed := map[string]bool{"arguments": true}
	for _, p := range fn.Params {
		shadowed[p] = true
	}
	ast.Hoisted(fn.Body, func(name string, _ *ast.Func) { shadowed[name] = true })
	rewrote := false
	r := &ast.Rewriter{SkipFuncs: true}
	r.PostExpr = func(e ast.Expr) ast.Expr {
		switch n := e.(type) {
		case *ast.Ident:
			if shadowed[n.Name] {
				return n
			}
			if i, ok := outer[n.Name]; ok {
				rewrote = true
				return ast.Idx(ast.Id(alias), ast.Int(i))
			}
			return n
		case *ast.Func:
			inner := make(map[string]int)
			for k, v := range outer {
				if !shadowed[k] {
					inner[k] = v
				}
			}
			if rewriteFreeParams(n, inner, alias) {
				rewrote = true
			}
			return n
		}
		return e
	}
	fn.Body = r.Stmts(fn.Body)
	return rewrote
}
