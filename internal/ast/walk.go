package ast

// Walk calls fn for node and every descendant in depth-first pre-order, in
// source order. If fn returns false for a node, its children are not
// visited. Walk tolerates nil so callers can pass optional fields directly: a
// nil interface (an absent else, a bare return) or a nil *Block (an absent
// catch or finally, the tree's only optional fields that are not interfaces).
// It is the reader of the traversal kit; Rewriter (rewrite.go) is the writer
// and enumerates the same children.
func Walk(node Node, fn func(Node) bool) {
	if b, ok := node.(*Block); node == nil || ok && b == nil || !fn(node) {
		return
	}
	switch n := node.(type) {
	case *Program:
		for _, s := range n.Body {
			Walk(s, fn)
		}
	case *Array:
		for _, e := range n.Elems {
			Walk(e, fn)
		}
	case *Object:
		for _, p := range n.Props {
			Walk(p.Value, fn)
		}
	case *Func:
		for _, s := range n.Body {
			Walk(s, fn)
		}
	case *Unary:
		Walk(n.X, fn)
	case *Update:
		Walk(n.X, fn)
	case *Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Logical:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Assign:
		Walk(n.Target, fn)
		Walk(n.Value, fn)
	case *Cond:
		Walk(n.Test, fn)
		Walk(n.Cons, fn)
		Walk(n.Alt, fn)
	case *Call:
		Walk(n.Callee, fn)
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *New:
		Walk(n.Callee, fn)
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *Member:
		Walk(n.X, fn)
		if n.Computed {
			Walk(n.Index, fn)
		}
	case *Seq:
		for _, e := range n.Exprs {
			Walk(e, fn)
		}
	case *VarDecl:
		for _, d := range n.Decls {
			Walk(d.Init, fn)
		}
	case *ExprStmt:
		Walk(n.X, fn)
	case *Block:
		for _, s := range n.Body {
			Walk(s, fn)
		}
	case *If:
		Walk(n.Test, fn)
		Walk(n.Cons, fn)
		Walk(n.Alt, fn)
	case *While:
		Walk(n.Test, fn)
		Walk(n.Body, fn)
	case *DoWhile:
		Walk(n.Body, fn)
		Walk(n.Test, fn)
	case *For:
		Walk(n.Init, fn)
		Walk(n.Test, fn)
		Walk(n.Update, fn)
		Walk(n.Body, fn)
	case *ForIn:
		Walk(n.Obj, fn)
		Walk(n.Body, fn)
	case *Return:
		Walk(n.Arg, fn)
	case *Labeled:
		Walk(n.Body, fn)
	case *Switch:
		Walk(n.Disc, fn)
		for _, c := range n.Cases {
			Walk(c.Test, fn)
			for _, s := range c.Body {
				Walk(s, fn)
			}
		}
	case *Throw:
		Walk(n.Arg, fn)
	case *Try:
		Walk(n.Block, fn)
		Walk(n.Catch, fn)
		Walk(n.Finally, fn)
	case *FuncDecl:
		Walk(n.Fn, fn)
	}
}
