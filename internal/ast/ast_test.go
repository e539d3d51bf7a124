package ast

import (
	"testing"
)

func sampleProgram() *Program {
	return &Program{Body: []Stmt{
		Var("x", Int(1)),
		&FuncDecl{Fn: Fn([]string{"a", "b"},
			IfThen(Bin("<", Id("a"), Id("b")), Ret(Id("a"))),
			Ret(Id("b")),
		)},
		ExprOf(CallId("f", Id("x"), Int(2))),
		&While{Test: Bin("<", Id("x"), Int(10)), Body: BlockOf(
			ExprOf(SetId("x", Bin("+", Id("x"), Int(1)))),
		)},
		&Try{
			Block:      BlockOf(&Throw{Arg: Strlit("e")}),
			CatchParam: "err",
			Catch:      BlockOf(ExprOf(CallId("log", Id("err")))),
			Finally:    BlockOf(&Empty{}),
		},
		&Labeled{Label: "L", Body: BlockOf(&Break{Label: "L"})},
		&Switch{Disc: Id("x"), Cases: []Case{
			{Test: Int(1), Body: []Stmt{&Break{}}},
			{Test: nil, Body: []Stmt{&Continue{}}},
		}},
		&ForIn{Decl: true, Name: "k", Obj: &Object{Props: []Property{
			{Kind: PropInit, Key: "a", Value: Int(1)},
			{Kind: PropGet, Key: "g", Value: Fn(nil, Ret(Int(2)))},
		}}, Body: &Empty{}},
		&For{Init: Var("i", Int(0)), Test: Bin("<", Id("i"), Int(3)),
			Update: &Update{Op: "++", X: Id("i")}, Body: &Empty{}},
		&DoWhile{Body: &Empty{}, Test: Boollit(false)},
		ExprOf(&Cond{Test: Boollit(true), Cons: &Seq{Exprs: []Expr{Int(1), Int(2)}},
			Alt: &Unary{Op: "-", X: &Member{X: NewN(Id("D")), Name: "x"}}}),
		ExprOf(&Logical{Op: "&&", L: &This{}, R: &NewTarget{}}),
		ExprOf(Idx(&Array{Elems: []Expr{&Null{}, Boollit(true)}}, Int(0))),
	}}
}

func TestWalkVisitsEverything(t *testing.T) {
	prog := sampleProgram()
	count := 0
	Walk(prog, func(n Node) bool {
		count++
		return true
	})
	if count < 60 {
		t.Errorf("walk visited only %d nodes", count)
	}
}

func TestWalkPrune(t *testing.T) {
	prog := sampleProgram()
	full, pruned := 0, 0
	Walk(prog, func(n Node) bool { full++; return true })
	Walk(prog, func(n Node) bool {
		pruned++
		_, isFn := n.(*Func)
		return !isFn
	})
	if pruned >= full {
		t.Errorf("pruning should visit fewer nodes: %d vs %d", pruned, full)
	}
}

func TestWalkToleratesNilFields(t *testing.T) {
	// Optional fields passed as typed nils must not crash the walker.
	Walk(&If{Test: Id("x"), Cons: &Empty{}}, func(Node) bool { return true })
	Walk(&Return{}, func(Node) bool { return true })
	var b *Block
	Walk(b, func(Node) bool { return true })
}

func TestPositions(t *testing.T) {
	p := Pos{Line: 3, Col: 7}
	if !p.Known() {
		t.Error("positive position should be known")
	}
	if (Pos{}).Known() {
		t.Error("zero position should be unknown")
	}
	n := &Ident{P: p, Name: "x"}
	if n.Position() != p {
		t.Error("Position accessor")
	}
}

func TestBuilders(t *testing.T) {
	if Id("a").Name != "a" {
		t.Error("Id")
	}
	if Num(1.5).Value != 1.5 || Int(3).Value != 3 {
		t.Error("Num/Int")
	}
	call := CallId("f", Int(1))
	if call.Callee.(*Ident).Name != "f" || len(call.Args) != 1 {
		t.Error("CallId")
	}
	m := Dot(Id("o"), "p")
	if m.Computed || m.Name != "p" {
		t.Error("Dot")
	}
	ix := Idx(Id("a"), Int(0))
	if !ix.Computed {
		t.Error("Idx")
	}
	if len(BlockOf(&Empty{}, &Empty{}).Body) != 2 {
		t.Error("BlockOf")
	}
}
