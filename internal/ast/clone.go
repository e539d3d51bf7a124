package ast

// CloneProgram returns a deep copy of p. Compiler pipelines mutate trees in
// place, so callers that reuse a parsed program across configurations clone
// it first. Clones come out unresolved: scope annotations (Refs, ScopeInfo
// layouts) are stripped rather than shared, because a layout's FnDecls
// point at the original tree's nodes — the clone must be re-resolved after
// whatever rewriting it was cloned for.
func CloneProgram(p *Program) *Program {
	if p == nil {
		return nil
	}
	return &Program{Pos: p.Pos, Body: cloneStmts(p.Body)}
}

// CloneExpr returns a deep copy of an expression.
func CloneExpr(e Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *Ident:
		return &Ident{P: n.P, Name: n.Name}
	case *Number:
		c := *n
		return &c
	case *Str:
		c := *n
		return &c
	case *Bool:
		c := *n
		return &c
	case *Null:
		c := *n
		return &c
	case *This:
		return &This{P: n.P}
	case *NewTarget:
		return &NewTarget{P: n.P}
	case *Array:
		elems := make([]Expr, len(n.Elems))
		for i, el := range n.Elems {
			elems[i] = CloneExpr(el)
		}
		return &Array{P: n.P, Elems: elems}
	case *Object:
		props := make([]Property, len(n.Props))
		for i, p := range n.Props {
			props[i] = Property{Kind: p.Kind, Key: p.Key, Value: CloneExpr(p.Value)}
		}
		return &Object{P: n.P, Props: props}
	case *Func:
		params := append([]string(nil), n.Params...)
		return &Func{P: n.P, Name: n.Name, Params: params, Body: cloneStmts(n.Body), Arrow: n.Arrow, Helper: n.Helper}
	case *Unary:
		return &Unary{P: n.P, Op: n.Op, X: CloneExpr(n.X)}
	case *Update:
		return &Update{P: n.P, Op: n.Op, Prefix: n.Prefix, X: CloneExpr(n.X)}
	case *Binary:
		return &Binary{P: n.P, Op: n.Op, L: CloneExpr(n.L), R: CloneExpr(n.R)}
	case *Logical:
		return &Logical{P: n.P, Op: n.Op, L: CloneExpr(n.L), R: CloneExpr(n.R)}
	case *Assign:
		return &Assign{P: n.P, Op: n.Op, Target: CloneExpr(n.Target), Value: CloneExpr(n.Value)}
	case *Cond:
		return &Cond{P: n.P, Test: CloneExpr(n.Test), Cons: CloneExpr(n.Cons), Alt: CloneExpr(n.Alt)}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = CloneExpr(a)
		}
		return &Call{P: n.P, Callee: CloneExpr(n.Callee), Args: args, Label: n.Label}
	case *New:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = CloneExpr(a)
		}
		return &New{P: n.P, Callee: CloneExpr(n.Callee), Args: args, Label: n.Label}
	case *Member:
		m := &Member{P: n.P, X: CloneExpr(n.X), Name: n.Name, Computed: n.Computed}
		if n.Computed {
			m.Index = CloneExpr(n.Index)
		}
		return m
	case *Seq:
		exprs := make([]Expr, len(n.Exprs))
		for i, x := range n.Exprs {
			exprs[i] = CloneExpr(x)
		}
		return &Seq{P: n.P, Exprs: exprs}
	}
	panic("ast: CloneExpr: unknown expression")
}

// CloneStmt returns a deep copy of a statement.
func CloneStmt(s Stmt) Stmt {
	switch n := s.(type) {
	case nil:
		return nil
	case *VarDecl:
		decls := make([]Declarator, len(n.Decls))
		for i, d := range n.Decls {
			decls[i] = Declarator{Name: d.Name, Init: CloneExpr(d.Init)}
		}
		return &VarDecl{P: n.P, Decls: decls}
	case *ExprStmt:
		return &ExprStmt{P: n.P, X: CloneExpr(n.X)}
	case *Block:
		return &Block{P: n.P, Body: cloneStmts(n.Body)}
	case *If:
		return &If{P: n.P, Test: CloneExpr(n.Test), Cons: CloneStmt(n.Cons), Alt: CloneStmt(n.Alt)}
	case *While:
		return &While{P: n.P, Test: CloneExpr(n.Test), Body: CloneStmt(n.Body)}
	case *DoWhile:
		return &DoWhile{P: n.P, Body: CloneStmt(n.Body), Test: CloneExpr(n.Test)}
	case *For:
		return &For{P: n.P, Init: CloneStmt(n.Init), Test: CloneExpr(n.Test), Update: CloneExpr(n.Update), Body: CloneStmt(n.Body)}
	case *ForIn:
		return &ForIn{P: n.P, Decl: n.Decl, Name: n.Name, Obj: CloneExpr(n.Obj), Body: CloneStmt(n.Body)}
	case *Return:
		return &Return{P: n.P, Arg: CloneExpr(n.Arg)}
	case *Break:
		c := *n
		return &c
	case *Continue:
		c := *n
		return &c
	case *Labeled:
		return &Labeled{P: n.P, Label: n.Label, Body: CloneStmt(n.Body)}
	case *Switch:
		cases := make([]Case, len(n.Cases))
		for i, c := range n.Cases {
			cases[i] = Case{Test: CloneExpr(c.Test), Body: cloneStmts(c.Body)}
		}
		return &Switch{P: n.P, Disc: CloneExpr(n.Disc), Cases: cases}
	case *Throw:
		return &Throw{P: n.P, Arg: CloneExpr(n.Arg)}
	case *Try:
		t := &Try{P: n.P, CatchParam: n.CatchParam}
		if n.Block != nil {
			t.Block = CloneStmt(n.Block).(*Block)
		}
		if n.Catch != nil {
			t.Catch = CloneStmt(n.Catch).(*Block)
		}
		if n.Finally != nil {
			t.Finally = CloneStmt(n.Finally).(*Block)
		}
		return t
	case *FuncDecl:
		return &FuncDecl{P: n.P, Fn: CloneExpr(n.Fn).(*Func)}
	case *Empty:
		c := *n
		return &c
	}
	panic("ast: CloneStmt: unknown statement")
}

func cloneStmts(body []Stmt) []Stmt {
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = CloneStmt(s)
	}
	return out
}
