// Package boxes implements §3.2.1 of the paper: assignable variables that
// are captured by nested functions are boxed (moved into a one-field heap
// cell) so that, after a continuation restores a function's locals into a
// fresh environment, closures created before the capture still share state
// with the restored code. This is the same solution scheme2js uses.
//
// The pass runs after A-normalization and before instrumentation, so reads
// become `x.v` member atoms and writes become `x.v = e` member assignments —
// shapes the instrumentation already handles. Boxes are plain object
// literals; no runtime support is needed.
package boxes

import (
	"slices"
	"sort"

	"repro/internal/ast"
)

// Box rewrites prog in place and returns it.
func Box(prog *ast.Program) *ast.Program {
	b := &boxer{scopes: map[*ast.Func]*scope{}}
	b.visit = b.analyze
	b.rw = ast.Rewriter{SkipFuncs: true, PreStmt: b.try, PostStmt: b.decl, PostExpr: b.expr}
	// The program's top level is the global frame, whose bindings are the
	// realm's cells: no continuation restores it, so nothing it binds is
	// boxed, and a name no function binds is left as it is.
	for _, s := range prog.Body {
		ast.Walk(s, b.visit)
	}
	prog.Body = b.rw.Stmts(prog.Body)
	return prog
}

// flags is what the pass knows about one name in one scope.
type flags uint8

const (
	declared flags = 1 << iota // a parameter, a var or a function declaration
	param
	assigned // written, here or in a nested function
	captured // referenced from a nested function
)

// boxed: an assignable local a nested function can see.
func (f flags) boxed() bool {
	return f&(declared|assigned|captured) == declared|assigned|captured
}

// scope is one function's name set, computed once (ast.Hoisted) and shared
// by the analysis and the rewrite. A function expression's own name is in
// it with no flag: it shadows an outer binding without being a local that
// could be boxed. fns holds the function each declared name is hoisted to
// (its last declaration), which is what the name's box starts out holding.
type scope struct {
	parent *scope
	names  map[string]flags
	fns    map[string]*ast.Func
}

type boxer struct {
	scopes map[*ast.Func]*scope
	cur    *scope // innermost scope of the node being visited
	visit  func(ast.Node) bool
	rw     ast.Rewriter
}

// lookup finds the scope that binds name as seen from b.cur.
func (b *boxer) lookup(name string) (*scope, flags) {
	for s := b.cur; s != nil; s = s.parent {
		if f, ok := s.names[name]; ok {
			return s, f
		}
	}
	return nil, 0
}

func (b *boxer) boxedRef(name string) bool {
	_, f := b.lookup(name)
	return f.boxed()
}

// analyze is the Walk callback of the first traversal: it builds every
// function's scope and marks, on the scope that binds it, each name that is
// written and each that is reached from a nested function. A catch parameter
// is not modelled here — a reference to one counts against the local it
// shadows, which at worst boxes a variable that did not need it.
func (b *boxer) analyze(node ast.Node) bool {
	switch n := node.(type) {
	case *ast.Func:
		sc := &scope{parent: b.cur, names: make(map[string]flags, len(n.Params)+1)}
		for _, p := range n.Params {
			sc.names[p] |= declared | param
		}
		ast.Hoisted(n.Body, func(name string, decl *ast.Func) {
			if decl != nil && decl.Intrinsic != ast.NoIntrinsic {
				return // the prelude's: the realm's table holds it, no scope binds it
			}
			sc.names[name] |= declared
			if decl != nil {
				if sc.fns == nil {
					sc.fns = make(map[string]*ast.Func)
				}
				sc.fns[name] = decl
			}
		})
		if n.Self != "" {
			sc.names[n.Self] |= 0 // bound here, with no flag of its own
		}
		b.scopes[n], b.cur = sc, sc
		for _, s := range n.Body {
			ast.Walk(s, b.visit)
		}
		b.cur = sc.parent
		return false
	case *ast.VarDecl:
		for i := range n.Decls {
			if n.Decls[i].Init != nil {
				b.mark(n.Decls[i].Name, assigned)
			}
		}
	case *ast.Assign:
		if id, ok := n.Target.(*ast.Ident); ok {
			b.mark(id.Name, assigned)
		}
	case *ast.Update:
		if id, ok := n.X.(*ast.Ident); ok {
			b.mark(id.Name, assigned)
		}
	case *ast.Ident:
		if n.Intrinsic() == ast.NoIntrinsic {
			b.mark(n.Name, 0)
		}
	}
	return true
}

func (b *boxer) mark(name string, how flags) {
	s, f := b.lookup(name)
	if s == nil {
		return
	}
	if s != b.cur {
		how |= captured
	}
	if f|how != f {
		s.names[name] = f | how
	}
}

// expr is the rewrite's PostExpr: a reference to a boxed name goes through
// the cell, and a nested function is rewritten as its own scope.
func (b *boxer) expr(e ast.Expr) ast.Expr {
	switch n := e.(type) {
	case *ast.Ident:
		if n.Intrinsic() == ast.NoIntrinsic && b.boxedRef(n.Name) {
			return &ast.Member{P: n.P, X: n, Name: "v"}
		}
	case *ast.Call:
		// A call of a boxed name was a plain call and stays one: the callee
		// (0, x.v) passes no receiver, where x.v would pass the box. (A
		// guest's own x.v(...) of a boxed x reads x.v.v by now.)
		if m, ok := n.Callee.(*ast.Member); ok && !m.Computed && m.Name == "v" {
			if id, ok := m.X.(*ast.Ident); ok && b.boxedRef(id.Name) {
				n.Callee = &ast.Seq{P: m.P, Exprs: []ast.Expr{ast.Num(0), m}}
			}
		}
	case *ast.Func:
		sc := b.scopes[n]
		// Re-parented, not just entered: under a catch clause whose
		// parameter shadows a boxed name (try, below) the chain runs
		// through that clause.
		sc.parent, b.cur = b.cur, sc
		n.Body = b.rw.Stmts(n.Body)
		b.cur = sc.parent
		if pro := sc.prologue(n.Params); pro != nil {
			n.Body = append(pro, n.Body...)
		}
	}
	return e
}

// prologue allocates every box at function entry, before the first possible
// suspension point. If boxes were allocated at the original declaration
// sites, a continuation captured between closure hoisting and the
// declaration would restore into a fresh environment whose box the old
// closures never see; allocating up front puts the box reference into the
// very first reified frame, shared across every restore. A declared
// function's box starts out holding the function, as its binding would: the
// declaration moves here (decl drops the statement), and binds as one still
// (ast.Func.Self).
func (sc *scope) prologue(params []string) []ast.Stmt {
	var out []ast.Stmt
	for _, p := range params {
		if sc.names[p].boxed() && sc.fns[p] == nil {
			out = append(out, ast.ExprOf(ast.SetId(p, boxLiteral(ast.Id(p)))))
		}
	}
	var vars []string
	for name, f := range sc.names {
		if f.boxed() && (f&param == 0 || sc.fns[name] != nil) {
			vars = append(vars, name)
		}
	}
	sort.Strings(vars)
	for _, name := range vars {
		var init ast.Expr = ast.Undef()
		if fn := sc.fns[name]; fn != nil {
			init = fn
		}
		out = append(out, ast.Var(name, boxLiteral(init)))
	}
	return out
}

func boxLiteral(init ast.Expr) ast.Expr {
	return &ast.Object{Props: []ast.Property{{Kind: ast.PropInit, Key: "v", Value: init}}}
}

// decl is the rewrite's PostStmt. The box itself is allocated in the
// function prologue, so a boxed declaration becomes a write through the box:
// var x = e  =>  x.v = e.
func (b *boxer) decl(s ast.Stmt) ast.Stmt {
	if fd, ok := s.(*ast.FuncDecl); ok && b.boxedRef(fd.Fn.Name) {
		return &ast.Empty{P: fd.P}
	}
	n, ok := s.(*ast.VarDecl)
	if !ok || !slices.ContainsFunc(n.Decls, func(d ast.Declarator) bool { return b.boxedRef(d.Name) }) {
		return s
	}
	var out []ast.Stmt
	for i := range n.Decls {
		d := &n.Decls[i]
		if !b.boxedRef(d.Name) {
			out = append(out, &ast.VarDecl{P: n.P, Decls: []ast.Declarator{*d}})
		} else if d.Init != nil {
			out = append(out, ast.ExprOf(ast.SetTo(
				&ast.Member{X: ast.Id(d.Name), Name: "v"}, d.Init)))
		}
	}
	switch len(out) {
	case 0:
		return &ast.Empty{P: n.P}
	case 1:
		return out[0]
	}
	return ast.BlockOf(out...)
}

// try is the rewrite's PreStmt: a catch parameter that shadows a boxed name
// is a scope of its own for the catch body (closures inside it included), so
// the rewriter takes the statement over and runs that block under it.
func (b *boxer) try(s ast.Stmt) (ast.Stmt, bool) {
	n, ok := s.(*ast.Try)
	if !ok || n.Catch == nil || !b.boxedRef(n.CatchParam) {
		return nil, false
	}
	n.Block = b.rw.Stmt(n.Block).(*ast.Block)
	b.cur = &scope{parent: b.cur, names: map[string]flags{n.CatchParam: 0}}
	n.Catch = b.rw.Stmt(n.Catch).(*ast.Block)
	b.cur = b.cur.parent
	if n.Finally != nil {
		n.Finally = b.rw.Stmt(n.Finally).(*ast.Block)
	}
	return n, true
}
