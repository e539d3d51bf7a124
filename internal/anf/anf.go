// Package anf A-normalizes JavaScript (Flanagan et al., cited in §3.1 of
// the paper): after the transform, every function application either names
// its result (`var t = f(x)` or `x = f(x)`) or sits in tail position
// (`return f(x)`), and every operand is atomic. This is step (1) of
// Stopify's compilation strategy — the continuation instrumentation needs
// every capture point to be a statement boundary with a label.
//
// The pass expects desugared input (no for/do-while/for-in/switch, no
// update or compound assignments, no arrows) and preserves evaluation
// order: non-atomic subexpressions are hoisted left-to-right into fresh
// `$t` temporaries.
package anf

import (
	"fmt"

	"repro/internal/ast"
)

// Normalize rewrites prog into A-normal form in place and returns it.
func Normalize(prog *ast.Program) *ast.Program {
	NormalizeFrom(prog, 0)
	return prog
}

// NormalizeFrom is Normalize with the `$t` temporaries numbered after the
// first tmps of them, and returns the count afterwards: a program
// normalized in parts, each part starting where the last one stopped, names
// its temporaries exactly as one pass over the whole would.
func NormalizeFrom(prog *ast.Program, tmps int) int {
	n := &norm{tmp: tmps, guest: prog.Guest}
	prog.Body = n.body(prog.Body)
	return n.tmp
}

type norm struct {
	tmp     int
	guest   ast.Names // a temporary takes none of these
	catches int       // try blocks with a catch around this point of the function
}

func (n *norm) fresh() string {
	return n.guest.Fresh("$t", &n.tmp)
}

func (n *norm) body(stmts []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range stmts {
		n.stmt(s, &out)
	}
	return out
}

func (n *norm) stmt(s ast.Stmt, out *[]ast.Stmt) {
	switch st := s.(type) {
	case nil:
		return
	case *ast.VarDecl:
		for _, d := range st.Decls {
			if d.Init == nil {
				*out = append(*out, ast.Var(d.Name, nil))
				continue
			}
			init := n.exprKeep(d.Init, out)
			*out = append(*out, ast.Var(d.Name, init))
		}
	case *ast.ExprStmt:
		n.exprStmt(st.X, out)
	case *ast.Block:
		*out = append(*out, &ast.Block{P: st.P, Body: n.body(st.Body)})
	case *ast.If:
		test := n.test(st.Test, out)
		cons := n.nested(st.Cons)
		var alt ast.Stmt
		if st.Alt != nil {
			alt = n.nested(st.Alt)
		}
		*out = append(*out, &ast.If{P: st.P, Test: test, Cons: cons, Alt: alt})
	case *ast.While:
		n.whileStmt(st, out)
	case *ast.Return:
		n.returnStmt(st, out)
	case *ast.Break, *ast.Continue, *ast.Empty:
		*out = append(*out, s)
	case *ast.Labeled:
		inner := n.nested(st.Body)
		*out = append(*out, &ast.Labeled{P: st.P, Label: st.Label, Body: inner})
	case *ast.Throw:
		arg := n.expr(st.Arg, out)
		*out = append(*out, &ast.Throw{P: st.P, Arg: arg})
	case *ast.Try:
		t := &ast.Try{P: st.P, CatchParam: st.CatchParam}
		if st.Catch != nil {
			n.catches++
		}
		t.Block = &ast.Block{Body: n.body(st.Block.Body)}
		if st.Catch != nil {
			n.catches--
			t.Catch = &ast.Block{Body: n.body(st.Catch.Body)}
		}
		if st.Finally != nil {
			t.Finally = &ast.Block{Body: n.body(st.Finally.Body)}
		}
		*out = append(*out, t)
	case *ast.FuncDecl:
		st.Fn.Body = n.fnBody(st.Fn.Body)
		*out = append(*out, st)
	default:
		// Loops other than while and switch must have been desugared.
		panic(fmt.Sprintf("anf: unexpected statement %T (run desugar first)", s))
	}
}

// exprStmt normalizes an expression in statement position, dropping results
// that are pure atoms.
func (n *norm) exprStmt(e ast.Expr, out *[]ast.Stmt) {
	switch x := e.(type) {
	case *ast.Seq:
		for _, sub := range x.Exprs {
			n.exprStmt(sub, out)
		}
	case *ast.Ident:
		// Not a pure atom to drop: the read throws a ReferenceError when
		// nothing declares the name, so it is kept, named — unless the name
		// is a pass's own temporary, as the one a desugared i++ ends in.
		if x.Name[0] != '$' {
			*out = append(*out, ast.Var(n.fresh(), x))
		}
	case *ast.Assign:
		n.assign(x, out)
	case *ast.Call:
		call := n.normCall(x, out)
		*out = append(*out, ast.Var(n.fresh(), call))
	case *ast.New:
		nw := n.normNew(x, out)
		*out = append(*out, ast.Var(n.fresh(), nw))
	default:
		v := n.expr(e, out)
		if !isAtom(v) {
			*out = append(*out, ast.ExprOf(v))
		}
	}
}

// assign normalizes `target = value` in statement position.
func (n *norm) assign(a *ast.Assign, out *[]ast.Stmt) {
	switch target := a.Target.(type) {
	case *ast.Ident:
		v := n.exprKeep(a.Value, out)
		*out = append(*out, ast.ExprOf(ast.SetId(target.Name, v)))
	case *ast.Member:
		// Evaluation order: base, index, then value.
		base := n.expr(target.X, out)
		var ref *ast.Member
		if target.Computed {
			idx := n.expr(target.Index, out)
			ref = ast.Idx(base, idx)
		} else {
			ref = &ast.Member{X: base, Name: target.Name}
		}
		v := n.expr(a.Value, out)
		*out = append(*out, ast.ExprOf(ast.SetTo(ref, v)))
	default:
		panic("anf: invalid assignment target")
	}
}

func (n *norm) whileStmt(st *ast.While, out *[]ast.Stmt) {
	if !containsEffects(st.Test) {
		body := n.nested(st.Body)
		*out = append(*out, &ast.While{P: st.P, Test: st.Test, Body: body})
		return
	}
	// while (c()) body  =>  while (true) { var t = c(); if (!t) break; body }
	var pre []ast.Stmt
	t := n.expr(st.Test, &pre)
	pre = append(pre, ast.IfThen(ast.Not(t), &ast.Break{}))
	body := n.nested(st.Body)
	if b, ok := body.(*ast.Block); ok {
		pre = append(pre, b.Body...)
	} else {
		pre = append(pre, body)
	}
	*out = append(*out, &ast.While{P: st.P, Test: ast.Boollit(true), Body: ast.BlockOf(pre...)})
}

func (n *norm) returnStmt(st *ast.Return, out *[]ast.Stmt) {
	if st.Arg == nil {
		*out = append(*out, st)
		return
	}
	// A directly returned call is a tail call and stays in place (§3.2.2),
	// unless a catch is around it: its handler is live, so the call is not
	// the function's last act, and is named like any other.
	if call, ok := st.Arg.(*ast.Call); ok && n.catches == 0 {
		normed := n.normCall(call, out)
		*out = append(*out, &ast.Return{P: st.P, Arg: normed})
		return
	}
	arg := n.expr(st.Arg, out)
	*out = append(*out, &ast.Return{P: st.P, Arg: arg})
}

// fnBody normalizes a function's body: a try around the function is not
// around its returns.
func (n *norm) fnBody(body []ast.Stmt) []ast.Stmt {
	catches := n.catches
	n.catches = 0
	body = n.body(body)
	n.catches = catches
	return body
}

// nested normalizes a statement used as a loop/if body.
func (n *norm) nested(s ast.Stmt) ast.Stmt {
	var out []ast.Stmt
	n.stmt(s, &out)
	if len(out) == 1 {
		return out[0]
	}
	return ast.BlockOf(out...)
}

// test normalizes a condition: call-free conditions stay, anything
// effectful is hoisted to an atom.
func (n *norm) test(e ast.Expr, out *[]ast.Stmt) ast.Expr {
	if !containsEffects(e) {
		return e
	}
	return n.expr(e, out)
}

// expr normalizes e to an atom, emitting prelude statements.
func (n *norm) expr(e ast.Expr, out *[]ast.Stmt) ast.Expr {
	switch x := e.(type) {
	case nil:
		return nil // array-literal elision hole
	case *ast.Ident, *ast.Number, *ast.Str, *ast.Bool, *ast.Null, *ast.This, *ast.NewTarget:
		return e
	case *ast.Func:
		x.Body = n.fnBody(x.Body)
		return x
	case *ast.Member:
		base := n.expr(x.X, out)
		var m ast.Expr
		if x.Computed {
			m = ast.Idx(base, n.expr(x.Index, out))
		} else {
			m = &ast.Member{X: base, Name: x.Name}
		}
		return n.name(m, out)
	case *ast.Call:
		return n.name(n.normCall(x, out), out)
	case *ast.New:
		return n.name(n.normNew(x, out), out)
	case *ast.Unary:
		return n.name(n.normUnary(x, out), out)
	case *ast.Binary:
		l := n.expr(x.L, out)
		r := n.expr(x.R, out)
		return n.name(&ast.Binary{P: x.P, Op: x.Op, L: l, R: r}, out)
	case *ast.Logical:
		if pureSimple(x.R) {
			l := n.expr(x.L, out)
			return n.name(&ast.Logical{P: x.P, Op: x.Op, L: l, R: x.R}, out)
		}
		// var t = L; if (t) { t = R }   (&&, dually for ||)
		t := n.fresh()
		l := n.expr(x.L, out)
		*out = append(*out, ast.Var(t, l))
		var guard ast.Expr = ast.Id(t)
		if x.Op == "||" {
			guard = ast.Not(ast.Id(t))
		}
		var rhs []ast.Stmt
		rv := n.expr(x.R, &rhs)
		rhs = append(rhs, ast.ExprOf(ast.SetId(t, rv)))
		*out = append(*out, ast.IfThen(guard, rhs...))
		return ast.Id(t)
	case *ast.Cond:
		if pureSimple(x.Cons) && pureSimple(x.Alt) {
			test := n.expr(x.Test, out)
			return n.name(&ast.Cond{P: x.P, Test: test, Cons: x.Cons, Alt: x.Alt}, out)
		}
		t := n.fresh()
		*out = append(*out, ast.Var(t, nil))
		test := n.test(x.Test, out)
		var consS, altS []ast.Stmt
		cv := n.expr(x.Cons, &consS)
		consS = append(consS, ast.ExprOf(ast.SetId(t, cv)))
		av := n.expr(x.Alt, &altS)
		altS = append(altS, ast.ExprOf(ast.SetId(t, av)))
		*out = append(*out, ast.IfElse(test, ast.BlockOf(consS...), ast.BlockOf(altS...)))
		return ast.Id(t)
	case *ast.Assign:
		t := n.fresh()
		switch target := x.Target.(type) {
		case *ast.Ident:
			v := n.exprKeep(x.Value, out)
			*out = append(*out, ast.Var(t, v))
			*out = append(*out, ast.ExprOf(ast.SetId(target.Name, ast.Id(t))))
		case *ast.Member:
			base := n.expr(target.X, out)
			var ref *ast.Member
			if target.Computed {
				ref = ast.Idx(base, n.expr(target.Index, out))
			} else {
				ref = &ast.Member{X: base, Name: target.Name}
			}
			v := n.expr(x.Value, out)
			*out = append(*out, ast.Var(t, v))
			*out = append(*out, ast.ExprOf(ast.SetTo(ref, ast.Id(t))))
		default:
			panic("anf: invalid assignment target")
		}
		return ast.Id(t)
	case *ast.Seq:
		for i := 0; i < len(x.Exprs)-1; i++ {
			n.exprStmt(x.Exprs[i], out)
		}
		return n.expr(x.Exprs[len(x.Exprs)-1], out)
	case *ast.Array:
		elems := make([]ast.Expr, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = n.expr(el, out)
		}
		return n.name(&ast.Array{P: x.P, Elems: elems}, out)
	case *ast.Object:
		props := make([]ast.Property, len(x.Props))
		for i, p := range x.Props {
			if p.Kind == ast.PropInit {
				props[i] = ast.Property{Kind: p.Kind, Key: p.Key, Value: n.expr(p.Value, out)}
			} else {
				fn := p.Value.(*ast.Func)
				fn.Body = n.fnBody(fn.Body)
				props[i] = ast.Property{Kind: p.Kind, Key: p.Key, Value: fn}
			}
		}
		return n.name(&ast.Object{P: x.P, Props: props}, out)
	case *ast.Update:
		// normalizeAssignments removes these; accept a leftover by lowering
		// its operand only (semantics preserved for idents).
		x.X = n.expr(x.X, out)
		return n.name(x, out)
	}
	panic(fmt.Sprintf("anf: unknown expression %T", e))
}

// exprKeep normalizes e for a named position (var init / ident assignment):
// a call may remain at the top, and a single pure operation on atoms needs
// no temporary.
func (n *norm) exprKeep(e ast.Expr, out *[]ast.Stmt) ast.Expr {
	switch x := e.(type) {
	case *ast.Call:
		return n.normCall(x, out)
	case *ast.New:
		return n.normNew(x, out)
	case *ast.Binary:
		l := n.expr(x.L, out)
		r := n.expr(x.R, out)
		return &ast.Binary{P: x.P, Op: x.Op, L: l, R: r}
	case *ast.Unary:
		return n.normUnary(x, out)
	case *ast.Member:
		base := n.expr(x.X, out)
		if x.Computed {
			return ast.Idx(base, n.expr(x.Index, out))
		}
		return &ast.Member{X: base, Name: x.Name}
	case *ast.Array, *ast.Object, *ast.Func, *ast.Logical, *ast.Cond:
		return n.expr(e, out)
	default:
		return n.expr(e, out)
	}
}

// normUnary atomizes a unary operand; delete keeps its member reference
// (only the base and index are hoisted) since deleting a copy of the value
// would be meaningless.
func (n *norm) normUnary(x *ast.Unary, out *[]ast.Stmt) ast.Expr {
	if x.Op == "delete" {
		if m, ok := x.X.(*ast.Member); ok {
			base := n.expr(m.X, out)
			var ref *ast.Member
			if m.Computed {
				ref = ast.Idx(base, n.expr(m.Index, out))
			} else {
				ref = &ast.Member{X: base, Name: m.Name}
			}
			return &ast.Unary{P: x.P, Op: "delete", X: ref}
		}
		return x
	}
	return &ast.Unary{P: x.P, Op: x.Op, X: n.expr(x.X, out)}
}

// name hoists e into a fresh temporary and returns the reference.
func (n *norm) name(e ast.Expr, out *[]ast.Stmt) ast.Expr {
	t := n.fresh()
	*out = append(*out, ast.Var(t, e))
	return ast.Id(t)
}

// normCall normalizes callee and arguments of a call to atoms, preserving
// method-call receivers (a member callee keeps its shape so `this` binds).
func (n *norm) normCall(c *ast.Call, out *[]ast.Stmt) *ast.Call {
	var callee ast.Expr
	if m, ok := c.Callee.(*ast.Member); ok {
		base := n.expr(m.X, out)
		if m.Computed {
			callee = ast.Idx(base, n.expr(m.Index, out))
		} else {
			callee = &ast.Member{X: base, Name: m.Name}
		}
	} else {
		callee = n.expr(c.Callee, out)
	}
	args := make([]ast.Expr, len(c.Args))
	for i, a := range c.Args {
		args[i] = n.expr(a, out)
	}
	return &ast.Call{P: c.P, Callee: callee, Args: args}
}

func (n *norm) normNew(x *ast.New, out *[]ast.Stmt) *ast.New {
	callee := n.expr(x.Callee, out)
	args := make([]ast.Expr, len(x.Args))
	for i, a := range x.Args {
		args[i] = n.expr(a, out)
	}
	return &ast.New{P: x.P, Callee: callee, Args: args}
}

// isAtom reports trivially pure expressions. A nil expression — an array
// literal's elision hole — is vacuously atomic.
func isAtom(e ast.Expr) bool {
	switch e.(type) {
	case nil:
		return true
	case *ast.Ident, *ast.Number, *ast.Str, *ast.Bool, *ast.Null, *ast.This, *ast.NewTarget:
		return true
	}
	return false
}

// pureSimple reports expressions with no side effects and no user-code
// entry points: atoms, member reads, and pure operators over them. (Member
// reads can throw on null receivers, so keeping them conditional is more
// faithful than hoisting.)
func pureSimple(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident, *ast.Number, *ast.Str, *ast.Bool, *ast.Null, *ast.This, *ast.NewTarget:
		return true
	case *ast.Member:
		if x.Computed {
			return pureSimple(x.X) && pureSimple(x.Index)
		}
		return pureSimple(x.X)
	case *ast.Unary:
		return x.Op != "delete" && pureSimple(x.X)
	case *ast.Binary:
		return pureSimple(x.L) && pureSimple(x.R)
	case *ast.Logical:
		return pureSimple(x.L) && pureSimple(x.R)
	case *ast.Cond:
		return pureSimple(x.Test) && pureSimple(x.Cons) && pureSimple(x.Alt)
	}
	return false
}

// containsEffects reports whether e contains calls, allocations,
// assignments, or anything else that must be hoisted out of a condition.
func containsEffects(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Walk(e, func(node ast.Node) bool {
		switch node.(type) {
		case *ast.Call, *ast.New, *ast.Assign, *ast.Update, *ast.Seq,
			*ast.Array, *ast.Object, *ast.Func:
			found = true
			return false
		}
		return !found
	})
	return found
}
