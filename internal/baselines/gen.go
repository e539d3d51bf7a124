package baselines

import (
	"repro/internal/anf"
	"repro/internal/ast"
	"repro/internal/desugar"
	"repro/internal/parser"
	"repro/internal/printer"
)

// genPrelude supports the generator-style strawman: a converted function
// returns a generator object whose next() produces a {value, done} record;
// $gennext drives one-shot generators and passes native results through
// untouched.
const genPrelude = `
function $gennext(r) {
  if (r !== null && typeof r === "object" && r.$g === true) {
    return r.next().value;
  }
  return r;
}
`

// CompileGen models the second strawman of §3: implementing one-shot
// continuations with generators. Real generators turn every function into
// a generator factory and every call into .next() dispatch; the structural
// costs are a generator object and resumption closure per activation, a
// result record per return, and an extra dispatch call per application —
// which is exactly what this transform reproduces:
//
//	function f(a) { body }        =>  function f(a) {
//	                                    return { $g: true, next: function () { body' } };
//	                                  }
//	x = f(a)                      =>  x = $gennext(f(a))
//
// where body' wraps every return in a {value, done} record. `this` and
// `arguments` inside converted functions are not supported — it is a
// strawman for the numeric comparison of §3, not a product.
func CompileGen(source string) (string, error) {
	prog, err := parser.Parse(source)
	if err != nil {
		return "", err
	}
	nm := &desugar.Namer{}
	desugar.Apply(prog, desugar.Options{}, nm)
	anf.Normalize(prog)

	var fns []*ast.Func
	ast.Walk(prog, func(n ast.Node) bool {
		if fn, ok := n.(*ast.Func); ok {
			fns = append(fns, fn)
		}
		return true
	})
	for _, fn := range fns {
		genFunc(fn)
	}
	genUnwrapCalls(prog)
	return genPrelude + printer.Print(prog), nil
}

// genFunc turns the function into a generator factory: calling it
// allocates the generator object and the resumption closure; next() runs
// the original body.
func genFunc(fn *ast.Func) {
	genWrapReturns(fn.Body)
	body := append(fn.Body, ast.Ret(genRecord(ast.Undef())))
	next := &ast.Func{Body: body}
	genObj := &ast.Object{Props: []ast.Property{
		{Kind: ast.PropInit, Key: "$g", Value: ast.Boollit(true)},
		{Kind: ast.PropInit, Key: "next", Value: next},
	}}
	fn.Body = []ast.Stmt{ast.Ret(genObj)}
}

func genRecord(v ast.Expr) ast.Expr {
	return &ast.Object{Props: []ast.Property{
		{Kind: ast.PropInit, Key: "$gen", Value: ast.Boollit(true)},
		{Kind: ast.PropInit, Key: "done", Value: ast.Boollit(true)},
		{Kind: ast.PropInit, Key: "value", Value: v},
	}}
}

// genWrapReturns wraps every return of one function body in a {value,
// done} record; the functions nested in it are genFunc's to convert.
func genWrapReturns(body []ast.Stmt) {
	r := ast.Rewriter{
		PreExpr: ast.StmtsOnly,
		PreStmt: func(s ast.Stmt) (ast.Stmt, bool) {
			_, nested := s.(*ast.FuncDecl)
			return s, nested
		},
		PostStmt: func(s ast.Stmt) ast.Stmt {
			if n, ok := s.(*ast.Return); ok {
				arg := n.Arg
				if arg == nil {
					arg = ast.Undef()
				}
				if call, ok := arg.(*ast.Call); ok {
					arg = ast.CallId("$gennext", call)
				}
				n.Arg = genRecord(arg)
			}
			return s
		},
	}
	r.Stmts(body)
}

// genUnwrapCalls routes through $gennext every application whose value a
// declaration or an assignment keeps, in every function of prog.
func genUnwrapCalls(prog *ast.Program) {
	unwrap := func(e ast.Expr) ast.Expr {
		if call, ok := e.(*ast.Call); ok {
			return ast.CallId("$gennext", call)
		}
		return e
	}
	r := ast.Rewriter{PostStmt: func(s ast.Stmt) ast.Stmt {
		switch n := s.(type) {
		case *ast.VarDecl:
			for i := range n.Decls {
				n.Decls[i].Init = unwrap(n.Decls[i].Init)
			}
		case *ast.ExprStmt:
			if a, ok := n.X.(*ast.Assign); ok {
				a.Value = unwrap(a.Value)
			}
		}
		return s
	}}
	prog.Body = r.Stmts(prog.Body)
}
