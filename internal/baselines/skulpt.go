package baselines

import (
	"repro/internal/ast"
	"repro/internal/desugar"
	"repro/internal/parser"
	"repro/internal/printer"
)

// skulptPrelude routes arithmetic through dispatching helpers the way an
// interpreter's opcode handlers do. It also defines $forInKeys, the native a
// desugared for-in calls, since a Skulpt program runs without the Stopify
// runtime.
const skulptPrelude = `
function $sk_bin(op, a, b) {
  switch (op) {
    case "+": return a + b;
    case "-": return a - b;
    case "*": return a * b;
    case "/": return a / b;
    case "%": return a % b;
    case "<": return a < b;
    case "<=": return a <= b;
    case ">": return a > b;
    case ">=": return a >= b;
    case "===": return a === b;
    case "!==": return a !== b;
    default: return undefined;
  }
}
function $sk_truth(v) { return !!v; }
function $forInKeys(o) { return Object.keys(Object(o)); }
`

// CompileSkulpt models Skulpt for the Figure 12 comparison (§6.3): Skulpt
// is a Python interpreter written in JavaScript, so every arithmetic
// operation and comparison dispatches through a handler function instead of
// compiling to a primitive — the structural reason compiled-and-stopified
// PyJS beats it. Per the paper's experimental setup, the Skulpt side is
// configured to neither yield nor time out, so no suspension machinery is
// added at all.
func CompileSkulpt(source string) (string, error) {
	prog, err := parser.Parse(source)
	if err != nil {
		return "", err
	}
	nm := &desugar.Namer{}
	desugar.Apply(prog, desugar.Options{}, nm)
	rewriteToDispatch(prog)
	return skulptPrelude + printer.Print(prog), nil
}

var skulptOps = map[string]bool{
	"+": true, "-": true, "*": true, "/": true, "%": true,
	"<": true, "<=": true, ">": true, ">=": true, "===": true, "!==": true,
}

// rewriteToDispatch replaces primitive operators with handler calls,
// bottom-up across the whole program.
func rewriteToDispatch(prog *ast.Program) {
	r := ast.Rewriter{PostExpr: func(e ast.Expr) ast.Expr {
		if n, ok := e.(*ast.Binary); ok && skulptOps[n.Op] {
			return ast.CallId("$sk_bin", ast.Strlit(n.Op), n.L, n.R)
		}
		return e
	}}
	r.Stmts(prog.Body)
}
