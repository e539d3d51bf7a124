package ast_test

import (
	"fmt"
	"slices"
	"testing"

	. "repro/internal/ast"
	"repro/internal/printer"
)

// nodeKinds has one row per node kind: a statement in which the kind appears
// with every child it can have, optional ones once present and once absent.
// A new kind joins here, in Walk and in Rewriter; TestRewriterMatchesWalk
// fails until the three agree.
var nodeKinds = []struct {
	kind string
	stmt func() Stmt
}{
	{"*ast.Ident", func() Stmt { return ExprOf(Id("x")) }},
	{"*ast.Number", func() Stmt { return ExprOf(Int(1)) }},
	{"*ast.Str", func() Stmt { return ExprOf(Strlit("s")) }},
	{"*ast.Bool", func() Stmt { return ExprOf(Boollit(true)) }},
	{"*ast.Null", func() Stmt { return ExprOf(&Null{}) }},
	{"*ast.This", func() Stmt { return ExprOf(&This{}) }},
	{"*ast.NewTarget", func() Stmt { return ExprOf(&NewTarget{}) }},
	{"*ast.Array", func() Stmt { return ExprOf(&Array{Elems: []Expr{Int(1), nil, Id("x")}}) }},
	{"*ast.Object", func() Stmt {
		return ExprOf(SetId("o", &Object{Props: []Property{
			{Kind: PropInit, Key: "a", Value: Id("x")},
			{Kind: PropGet, Key: "g", Value: &Func{Name: "g", Body: []Stmt{Ret(Int(2))}}},
			{Kind: PropSet, Key: "g", Value: &Func{Name: "s", Params: []string{"v"}}},
		}}))
	}},
	{"*ast.Func", func() Stmt {
		return ExprOf(SetId("f", &Func{Name: "f", Params: []string{"a"}, Body: []Stmt{Var("y", Id("a")), Ret(Id("y"))}}))
	}},
	{"*ast.Unary", func() Stmt { return ExprOf(&Unary{Op: "typeof", X: Id("x")}) }},
	{"*ast.Update", func() Stmt { return ExprOf(&Update{Op: "++", X: Id("x")}) }},
	{"*ast.Binary", func() Stmt { return ExprOf(Bin("+", Id("a"), Id("b"))) }},
	{"*ast.Logical", func() Stmt { return ExprOf(Log("&&", Id("a"), Id("b"))) }},
	{"*ast.Assign", func() Stmt { return ExprOf(SetTo(Dot(Id("o"), "f"), Id("v"))) }},
	{"*ast.Cond", func() Stmt { return ExprOf(&Cond{Test: Id("t"), Cons: Id("a"), Alt: Id("b")}) }},
	{"*ast.Call", func() Stmt { return ExprOf(CallN(Dot(Id("o"), "m"), Id("a"), Int(2))) }},
	{"*ast.New", func() Stmt { return ExprOf(NewN(Id("C"), Id("a"), Int(2))) }},
	{"*ast.Member", func() Stmt { return ExprOf(Bin("+", Dot(Id("o"), "f"), Idx(Id("a"), Id("i")))) }},
	{"*ast.Seq", func() Stmt { return ExprOf(&Seq{Exprs: []Expr{Id("a"), Id("b")}}) }},
	{"*ast.VarDecl", func() Stmt {
		return &VarDecl{Decls: []Declarator{{Name: "a", Init: Id("x")}, {Name: "b"}}}
	}},
	{"*ast.ExprStmt", func() Stmt { return ExprOf(CallId("f")) }},
	{"*ast.Block", func() Stmt { return BlockOf(ExprOf(Id("a")), BlockOf()) }},
	{"*ast.If", func() Stmt {
		return BlockOf(IfThen(Id("t"), ExprOf(Id("a"))), IfElse(Id("t"), ExprOf(Id("a")), ExprOf(Id("b"))))
	}},
	{"*ast.While", func() Stmt { return &While{Test: Id("t"), Body: BlockOf(ExprOf(Id("a")))} }},
	{"*ast.DoWhile", func() Stmt { return &DoWhile{Body: BlockOf(ExprOf(Id("a"))), Test: Id("t")} }},
	{"*ast.For", func() Stmt {
		return BlockOf(
			&For{Init: Var("i", Int(0)), Test: Bin("<", Id("i"), Int(3)), Update: &Update{Op: "++", X: Id("i")}, Body: BlockOf(ExprOf(Id("i")))},
			&For{Init: ExprOf(SetId("i", Int(0))), Body: BlockOf(&Break{})},
		)
	}},
	{"*ast.ForIn", func() Stmt {
		return BlockOf(
			&ForIn{Decl: true, Name: "k", Obj: Id("o"), Body: BlockOf(ExprOf(Id("k")))},
			&ForIn{Name: "k", Obj: Id("o"), Body: &Empty{}},
		)
	}},
	{"*ast.Return", func() Stmt {
		return &FuncDecl{Fn: &Func{Name: "f", Body: []Stmt{IfThen(Id("t"), Ret(nil)), Ret(Id("x"))}}}
	}},
	{"*ast.Break", func() Stmt { return &Labeled{Label: "L", Body: BlockOf(&Break{Label: "L"})} }},
	{"*ast.Continue", func() Stmt {
		return &Labeled{Label: "L", Body: &While{Test: Id("t"), Body: BlockOf(IfThen(Id("a"), &Continue{}), &Continue{Label: "L"})}}
	}},
	{"*ast.Labeled", func() Stmt { return &Labeled{Label: "L", Body: BlockOf(ExprOf(Id("a")))} }},
	{"*ast.Switch", func() Stmt {
		return &Switch{Disc: Id("x"), Cases: []Case{
			{Test: Int(1), Body: []Stmt{ExprOf(Id("a")), &Break{}}},
			{Body: []Stmt{ExprOf(Id("b"))}},
		}}
	}},
	{"*ast.Throw", func() Stmt { return &Throw{Arg: Id("e")} }},
	{"*ast.Try", func() Stmt {
		return BlockOf(
			&Try{Block: BlockOf(ExprOf(Id("a"))), CatchParam: "e", Catch: BlockOf(ExprOf(Id("e")))},
			&Try{Block: BlockOf(ExprOf(Id("a"))), Finally: BlockOf(ExprOf(Id("f")))},
			&Try{Block: BlockOf(), CatchParam: "e", Catch: BlockOf(), Finally: BlockOf()},
		)
	}},
	{"*ast.FuncDecl", func() Stmt {
		return &FuncDecl{Fn: &Func{Name: "f", Params: []string{"a", "b"}, Body: []Stmt{Ret(Bin("+", Id("a"), Id("b")))}}}
	}},
	{"*ast.Empty", func() Stmt { return &Empty{} }},
}

// TestRewriterMatchesWalk holds the kit's two child enumerations together:
// over every node kind, a Rewriter whose callbacks change nothing leaves the
// printed program unchanged, offers its Pre callbacks exactly the nodes Walk
// visits, in Walk's order, and its Post callbacks the same nodes once each,
// and offers Expand, in the same order, the statements Walk visits that sit
// in a list or are a lone child other than a block; with SkipFuncs it offers
// what a Walk pruned below every *Func visits.
func TestRewriterMatchesWalk(t *testing.T) {
	walk := func(prog *Program, enterFuncs bool) []Node {
		var nodes []Node
		Walk(prog, func(n Node) bool {
			nodes = append(nodes, n)
			_, isFn := n.(*Func)
			return enterFuncs || !isFn
		})
		return nodes[1:] // the program itself
	}
	// positions filters what Walk visits down to what Expand is offered:
	// every statement but a for's init and a block outside a list.
	positions := func(prog *Program, nodes []Node) (out []Node) {
		listed, init := map[Node]bool{}, map[Node]bool{}
		list := func(body []Stmt) {
			for _, s := range body {
				listed[s] = true
			}
		}
		list(prog.Body)
		for _, n := range nodes {
			switch n := n.(type) {
			case *Block:
				list(n.Body)
			case *Func:
				list(n.Body)
			case *Switch:
				for _, c := range n.Cases {
					list(c.Body)
				}
			case *For:
				init[n.Init] = true
			}
		}
		for _, n := range nodes {
			_, isBlock := n.(*Block)
			if _, isStmt := n.(Stmt); isStmt && !init[n] && (listed[n] || !isBlock) {
				out = append(out, n)
			}
		}
		return out
	}
	seen := map[string]bool{}
	for _, c := range nodeKinds {
		for _, skip := range []bool{false, true} {
			prog := &Program{Body: []Stmt{c.stmt()}}
			before := printer.Print(prog)
			want := walk(prog, !skip)
			positioned := positions(prog, want)
			var pre, post, expanded []Node
			r := Rewriter{
				SkipFuncs: skip,
				Expand:    func(s Stmt) ([]Stmt, bool) { expanded = append(expanded, s); return nil, true },
				PreStmt:   func(s Stmt) (Stmt, bool) { pre = append(pre, s); return nil, false },
				PreExpr:   func(e Expr) (Expr, bool) { pre = append(pre, e); return nil, false },
				PostStmt:  func(s Stmt) Stmt { post = append(post, s); return s },
				PostExpr:  func(e Expr) Expr { post = append(post, e); return e },
			}
			prog.Body = r.Stmts(prog.Body)
			if after := printer.Print(prog); after != before {
				t.Errorf("%s (SkipFuncs %v): an identity rewrite changed the program\n%s\n---\n%s", c.kind, skip, before, after)
			}
			if !slices.Equal(pre, want) {
				t.Errorf("%s (SkipFuncs %v): Pre callbacks saw %d nodes, Walk visits %d, or in another order", c.kind, skip, len(pre), len(want))
			}
			if !slices.Equal(expanded, positioned) {
				t.Errorf("%s (SkipFuncs %v): Expand saw %d statements, %d sit in a list or alone, or in another order", c.kind, skip, len(expanded), len(positioned))
			}
			count := map[Node]int{}
			for _, n := range post {
				count[n]++
			}
			for _, n := range want {
				if count[n] != 1 {
					t.Errorf("%s (SkipFuncs %v): Post callbacks saw a %T %d times", c.kind, skip, n, count[n])
				}
			}
			if len(post) != len(want) {
				t.Errorf("%s (SkipFuncs %v): Post callbacks saw %d nodes, Walk visits %d", c.kind, skip, len(post), len(want))
			}
			for _, n := range want {
				seen[fmt.Sprintf("%T", n)] = true
			}
		}
		if !seen[c.kind] {
			t.Errorf("the row for %s has no %s in it", c.kind, c.kind)
		}
	}
	if len(seen) != len(nodeKinds) {
		t.Errorf("the table has %d rows and its trees %d node kinds", len(nodeKinds), len(seen))
	}
}

// TestRewriterPreTakesOver: a Pre callback that reports true replaces the
// node, and neither the node's children nor the Post callbacks see it.
func TestRewriterPreTakesOver(t *testing.T) {
	prog := &Program{Body: []Stmt{
		IfThen(Id("t"), ExprOf(CallId("f", Id("gone")))),
		ExprOf(Bin("+", Id("a"), CallId("g", Id("gone")))),
	}}
	r := Rewriter{
		PreStmt: func(s Stmt) (Stmt, bool) {
			if _, ok := s.(*If); ok {
				return &Empty{}, true
			}
			return nil, false
		},
		PreExpr: func(e Expr) (Expr, bool) {
			if _, ok := e.(*Call); ok {
				return Id("h"), true
			}
			return nil, false
		},
		PostStmt: func(s Stmt) Stmt {
			if _, ok := s.(*Empty); ok {
				t.Error("PostStmt saw a statement PreStmt had taken over")
			}
			return s
		},
		PostExpr: func(e Expr) Expr {
			if id, ok := e.(*Ident); ok && (id.Name == "gone" || id.Name == "h") {
				t.Errorf("PostExpr saw %s, below or in place of a node PreExpr had taken over", id.Name)
			}
			return e
		},
	}
	prog.Body = r.Stmts(prog.Body)
	if got, want := printer.Print(prog), ";\na + h;\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestHoistedForms: the three forms of the one hoisting scan agree, keep
// source order, reach every statement kind a declaration can sit under, and
// stay out of nested functions.
func TestHoistedForms(t *testing.T) {
	inner := &Func{Name: "inner", Body: []Stmt{Var("hidden", nil)}}
	decl := func(name string) *FuncDecl { return &FuncDecl{Fn: &Func{Name: name}} }
	body := []Stmt{
		Var("a", inner),
		decl("f"),
		IfElse(Id("t"), Var("b", nil), BlockOf(Var("c", nil))),
		&While{Test: Id("t"), Body: Var("d", nil)},
		&DoWhile{Body: Var("e", nil), Test: Id("t")},
		&For{Init: Var("i", Int(0)), Body: BlockOf(decl("g"))},
		&ForIn{Decl: true, Name: "k", Obj: Id("o"), Body: Var("l", nil)},
		&ForIn{Name: "notdeclared", Obj: Id("o"), Body: &Empty{}},
		&Labeled{Label: "L", Body: Var("m", nil)},
		&Switch{Disc: Id("x"), Cases: []Case{{Test: Int(1), Body: []Stmt{Var("n", nil)}}}},
		&Try{Block: BlockOf(Var("p", nil)), CatchParam: "err", Catch: BlockOf(Var("q", nil)), Finally: BlockOf(Var("r", nil))},
		&Try{Block: BlockOf(), Finally: BlockOf(decl("h"))},
	}
	names := DeclaredNames(body)
	if want := []string{"a", "f", "b", "c", "d", "e", "i", "g", "k", "l", "m", "n", "p", "q", "r", "h"}; !slices.Equal(names, want) {
		t.Errorf("DeclaredNames = %v, want %v", names, want)
	}
	vars, fns := HoistedDecls(body)
	if want := []string{"a", "b", "c", "d", "e", "i", "k", "l", "m", "n", "p", "q", "r"}; !slices.Equal(vars, want) {
		t.Errorf("HoistedDecls vars = %v, want %v", vars, want)
	}
	var fnNames []string
	for _, fn := range fns {
		fnNames = append(fnNames, fn.Name)
	}
	if want := []string{"f", "g", "h"}; !slices.Equal(fnNames, want) {
		t.Errorf("HoistedDecls fns = %v, want %v", fnNames, want)
	}
}
