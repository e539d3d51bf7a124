package printer

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// TestPrintParsePrintFixpointRandom generates random expression trees and
// checks the printer's core contract — print(parse(print(e))) == print(e) —
// which exercises precedence and parenthesization decisions far beyond the
// hand-written cases.
func TestPrintParsePrintFixpointRandom(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		e := randomExpr(rnd, 5)
		out1 := PrintExpr(e)
		re, err := parser.ParseExpr(out1)
		if err != nil {
			t.Fatalf("seed %d: printed expression does not parse: %v\n%s", seed, err, out1)
		}
		out2 := PrintExpr(re)
		if out1 != out2 {
			t.Fatalf("seed %d: not a fixpoint:\nfirst:  %s\nsecond: %s", seed, out1, out2)
		}
	}
}

func TestPrintParsePrintFixpointRandomStmts(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for seed := 0; seed < iters; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed + 10000)))
		prog := &ast.Program{}
		for i := 0; i < 1+rnd.Intn(5); i++ {
			prog.Body = append(prog.Body, randomStmt(rnd, 3))
		}
		out1 := Print(prog)
		if n := Size(prog); n != len(out1) {
			t.Fatalf("seed %d: Size = %d, Print wrote %d bytes:\n%s", seed, n, len(out1), out1)
		}
		re, err := parser.Parse(out1)
		if err != nil {
			t.Fatalf("seed %d: printed program does not parse: %v\n%s", seed, err, out1)
		}
		out2 := Print(re)
		if out1 != out2 {
			t.Fatalf("seed %d: not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", seed, out1, out2)
		}
	}
}

var identPool = []string{"a", "b", "c", "obj", "fn", "x1"}
var binOps = []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "===", "!=", "!==", "&", "|", "^", "<<", ">>", ">>>", "instanceof", "in"}
var unOps = []string{"!", "-", "+", "~", "typeof", "void"}

func randomExpr(rnd *rand.Rand, depth int) ast.Expr {
	if depth <= 0 {
		switch rnd.Intn(5) {
		case 0:
			return ast.Int(rnd.Intn(100))
		case 1:
			return ast.Num(rnd.Float64() * 10)
		case 2:
			return ast.Strlit("s" + string(rune('a'+rnd.Intn(26))))
		case 3:
			return ast.Boollit(rnd.Intn(2) == 0)
		default:
			return ast.Id(identPool[rnd.Intn(len(identPool))])
		}
	}
	sub := func() ast.Expr { return randomExpr(rnd, depth-1) }
	switch rnd.Intn(12) {
	case 0:
		return ast.Bin(binOps[rnd.Intn(len(binOps))], sub(), sub())
	case 1:
		return ast.Log([]string{"&&", "||"}[rnd.Intn(2)], sub(), sub())
	case 2:
		return &ast.Unary{Op: unOps[rnd.Intn(len(unOps))], X: sub()}
	case 3:
		return &ast.Cond{Test: sub(), Cons: sub(), Alt: sub()}
	case 4:
		return ast.CallN(ast.Id(identPool[rnd.Intn(len(identPool))]), sub())
	case 5:
		return ast.Dot(ast.Id(identPool[rnd.Intn(len(identPool))]), "p")
	case 6:
		return ast.Idx(ast.Id("obj"), sub())
	case 7:
		return &ast.Array{Elems: []ast.Expr{sub(), sub()}}
	case 8:
		return &ast.Object{Props: []ast.Property{{Kind: ast.PropInit, Key: "k", Value: sub()}}}
	case 9:
		return &ast.Assign{Op: "=", Target: ast.Id(identPool[rnd.Intn(len(identPool))]), Value: sub()}
	case 10:
		return ast.NewN(ast.Id("Ctor"), sub())
	default:
		return &ast.Seq{Exprs: []ast.Expr{sub(), sub()}}
	}
}

func randomStmt(rnd *rand.Rand, depth int) ast.Stmt {
	if depth <= 0 {
		return ast.ExprOf(&ast.Assign{Op: "=", Target: ast.Id("a"), Value: randomExpr(rnd, 1)})
	}
	sub := func() ast.Stmt { return randomStmt(rnd, depth-1) }
	switch rnd.Intn(8) {
	case 0:
		return ast.Var("v"+string(rune('a'+rnd.Intn(26))), randomExpr(rnd, 2))
	case 1:
		return &ast.If{Test: randomExpr(rnd, 2), Cons: sub(), Alt: sub()}
	case 2:
		return &ast.If{Test: randomExpr(rnd, 2), Cons: sub()}
	case 3:
		return &ast.While{Test: randomExpr(rnd, 2), Body: sub()}
	case 4:
		return ast.BlockOf(sub(), sub())
	case 5:
		return &ast.FuncDecl{Fn: &ast.Func{Name: "g", Params: []string{"p"}, Body: []ast.Stmt{ast.Ret(randomExpr(rnd, 2))}}}
	case 6:
		return &ast.Try{Block: ast.BlockOf(sub()), CatchParam: "e", Catch: ast.BlockOf(sub())}
	default:
		return ast.ExprOf(randomExpr(rnd, 2))
	}
}
