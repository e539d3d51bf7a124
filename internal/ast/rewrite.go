package ast

// Rewriter is Walk's writing counterpart: a bottom-up transformer that
// rewrites a tree in place. Children are rewritten first, in source order;
// PostStmt and PostExpr then see the node with its new children and return
// what takes its place; Expand, outermost first, turns one statement of a
// list into several. A nil callback is the identity. Walk and Rewriter
// hold the only two enumerations of a node's children a pass needs: a new
// node kind is added to both, and TestRewriterMatchesWalk checks they agree.
//
// Two children keep their type and the callback that replaces them with
// another panics: the blocks of a try statement are offered to the statement
// callbacks and stay *Block, a declaration's function is offered to the
// expression callbacks (so a pass meets every *Func in one place) and stays
// *Func.
type Rewriter struct {
	// Expand sees each statement of a list, and each lone statement child
	// (an if branch, a loop or label body) that is not a block, before
	// PreStmt does. It returns the statements that take its place — nil
	// keeps it, an empty slice drops it — and whether the rewriter goes on
	// into them: each is then rewritten as a statement, from PreStmt on, and
	// is not offered to Expand again. A lone child that becomes other than
	// one statement is wrapped in a block. A block that is a lone child, as
	// a try's blocks are, is not a list position; its statements are.
	Expand func(Stmt) (repl []Stmt, descend bool)

	// PreStmt and PreExpr see a node before its children and may take it
	// over: when they report true their result replaces the node as it is —
	// the rewriter neither descends into it nor offers it to the Post
	// callbacks. It is how a pass honours a binding construct (a catch
	// parameter), rewrites a parent before its children (o.f = v is a $set,
	// not an assignment to a $get) or prunes.
	PreStmt func(Stmt) (Stmt, bool)
	PreExpr func(Expr) (Expr, bool)

	PostStmt func(Stmt) Stmt
	PostExpr func(Expr) Expr

	// SkipFuncs keeps the rewriter out of function bodies — the *Func is
	// still offered to the callbacks — so a scope-sensitive pass can drive
	// its own per-scope recursion from there.
	SkipFuncs bool
}

// Stmts rewrites a statement list and returns it: in place, unless Expand
// replaces a statement with other than one.
func (r *Rewriter) Stmts(body []Stmt) []Stmt {
	var out []Stmt // nil while each statement has had one in its place
	for i, s := range body {
		one, many := r.expand(s)
		if out == nil && many == nil {
			body[i] = one
			continue
		}
		if out == nil {
			out = append(make([]Stmt, 0, len(body)+len(many)), body[:i]...)
		}
		if many == nil {
			out = append(out, one)
		} else {
			out = append(out, many...)
		}
	}
	if out == nil {
		return body
	}
	return out
}

// child rewrites a lone statement child, which Expand may make a block. A
// block child is no list position of its own: its statements are.
func (r *Rewriter) child(s Stmt) Stmt {
	if _, ok := s.(*Block); ok || s == nil {
		return r.Stmt(s)
	}
	one, many := r.expand(s)
	if many == nil {
		return one
	}
	return BlockOf(many...)
}

// expand offers s to Expand and rewrites what takes its place: one
// statement, or many when Expand gave other than one.
func (r *Rewriter) expand(s Stmt) (one Stmt, many []Stmt) {
	descend := true
	if r.Expand != nil {
		many, descend = r.Expand(s)
	}
	switch {
	case many == nil && descend:
		return r.Stmt(s), nil
	case many == nil:
		return s, nil
	case descend:
		for i, s := range many {
			many[i] = r.Stmt(s)
		}
	}
	if len(many) == 1 {
		return many[0], nil
	}
	return nil, many
}

func (r *Rewriter) exprs(es []Expr) {
	for i, e := range es {
		es[i] = r.Expr(e)
	}
}

// Stmt rewrites one statement; nil (an absent else, a for without init) stays
// nil.
func (r *Rewriter) Stmt(s Stmt) Stmt {
	if s == nil {
		return nil
	}
	if r.PreStmt != nil {
		if out, ok := r.PreStmt(s); ok {
			return out
		}
	}
	switch n := s.(type) {
	case *VarDecl:
		for i := range n.Decls {
			n.Decls[i].Init = r.Expr(n.Decls[i].Init)
		}
	case *ExprStmt:
		n.X = r.Expr(n.X)
	case *Block:
		n.Body = r.Stmts(n.Body)
	case *If:
		n.Test = r.Expr(n.Test)
		n.Cons = r.child(n.Cons)
		n.Alt = r.child(n.Alt)
	case *While:
		n.Test = r.Expr(n.Test)
		n.Body = r.child(n.Body)
	case *DoWhile:
		n.Body = r.child(n.Body)
		n.Test = r.Expr(n.Test)
	case *For:
		n.Init = r.Stmt(n.Init)
		n.Test = r.Expr(n.Test)
		n.Update = r.Expr(n.Update)
		n.Body = r.child(n.Body)
	case *ForIn:
		n.Obj = r.Expr(n.Obj)
		n.Body = r.child(n.Body)
	case *Return:
		n.Arg = r.Expr(n.Arg)
	case *Labeled:
		n.Body = r.child(n.Body)
	case *Switch:
		n.Disc = r.Expr(n.Disc)
		for i := range n.Cases {
			n.Cases[i].Test = r.Expr(n.Cases[i].Test)
			n.Cases[i].Body = r.Stmts(n.Cases[i].Body)
		}
	case *Throw:
		n.Arg = r.Expr(n.Arg)
	case *Try:
		n.Block = r.Stmt(n.Block).(*Block)
		if n.Catch != nil {
			n.Catch = r.Stmt(n.Catch).(*Block)
		}
		if n.Finally != nil {
			n.Finally = r.Stmt(n.Finally).(*Block)
		}
	case *FuncDecl:
		n.Fn = r.Expr(n.Fn).(*Func)
	}
	if r.PostStmt != nil {
		return r.PostStmt(s)
	}
	return s
}

// Expr rewrites one expression; nil (a bare return, an array hole) stays nil.
func (r *Rewriter) Expr(e Expr) Expr {
	if e == nil {
		return nil
	}
	if r.PreExpr != nil {
		if out, ok := r.PreExpr(e); ok {
			return out
		}
	}
	switch n := e.(type) {
	case *Array:
		r.exprs(n.Elems)
	case *Object:
		for i := range n.Props {
			n.Props[i].Value = r.Expr(n.Props[i].Value)
		}
	case *Func:
		if !r.SkipFuncs {
			n.Body = r.Stmts(n.Body)
		}
	case *Unary:
		n.X = r.Expr(n.X)
	case *Update:
		n.X = r.Expr(n.X)
	case *Binary:
		n.L = r.Expr(n.L)
		n.R = r.Expr(n.R)
	case *Logical:
		n.L = r.Expr(n.L)
		n.R = r.Expr(n.R)
	case *Assign:
		n.Target = r.Expr(n.Target)
		n.Value = r.Expr(n.Value)
	case *Cond:
		n.Test = r.Expr(n.Test)
		n.Cons = r.Expr(n.Cons)
		n.Alt = r.Expr(n.Alt)
	case *Call:
		n.Callee = r.Expr(n.Callee)
		r.exprs(n.Args)
	case *New:
		n.Callee = r.Expr(n.Callee)
		r.exprs(n.Args)
	case *Member:
		n.X = r.Expr(n.X)
		if n.Computed {
			n.Index = r.Expr(n.Index)
		}
	case *Seq:
		r.exprs(n.Exprs)
	}
	if r.PostExpr != nil {
		return r.PostExpr(e)
	}
	return e
}

// StmtsOnly is the PreExpr of a pass over statements alone: it leaves every
// expression, and so every function inside one, as it is.
func StmtsOnly(e Expr) (Expr, bool) { return e, true }
