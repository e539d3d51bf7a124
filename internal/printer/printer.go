// Package printer renders an AST back to JavaScript source. The output is
// precedence-correct (it round-trips through the parser) and lightly
// indented so that instrumented programs remain inspectable — useful when
// debugging the Stopify transformations and for the code-size experiment
// (§6.1 of the paper).
package printer

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/ast"
)

// Print renders a whole program.
func Print(p *ast.Program) string {
	pr := &printer{}
	for _, s := range p.Body {
		pr.stmt(s)
	}
	return pr.b.String()
}

// Size is len(Print(p)), added up without building the text.
func Size(p *ast.Program) int {
	pr := &printer{count: true}
	for _, s := range p.Body {
		pr.stmt(s)
	}
	return pr.n
}

// PrintStmt renders a single statement.
func PrintStmt(s ast.Stmt) string {
	pr := &printer{}
	pr.stmt(s)
	return pr.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e ast.Expr) string {
	pr := &printer{}
	pr.expr(e, 0)
	return pr.b.String()
}

type printer struct {
	b      strings.Builder
	n      int  // the bytes a counting printer would have written
	count  bool // add up the output's length in n instead of writing it (Size)
	indent int
}

func (p *printer) str(s string) {
	if p.count {
		p.n += len(s)
		return
	}
	p.b.WriteString(s)
}

func (p *printer) char(c byte) {
	if p.count {
		p.n++
		return
	}
	p.b.WriteByte(c)
}

func (p *printer) ws() {
	if p.count {
		p.n += 2 * p.indent
		return
	}
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("  ")
	}
}

func (p *printer) line(s string) {
	p.ws()
	p.str(s)
	p.char('\n')
}

// Expression precedence levels; a child is parenthesized when its level is
// below what its context requires.
const (
	precSeq = iota + 1
	precAssign
	precCond
	precOr
	precAnd
	precBitOr
	precBitXor
	precBitAnd
	precEq
	precRel
	precShift
	precAdd
	precMul
	precExp
	precUnary
	precPostfix
	precCall
	precPrimary
)

var binLevel = map[string]int{
	"|": precBitOr, "^": precBitXor, "&": precBitAnd,
	"==": precEq, "!=": precEq, "===": precEq, "!==": precEq,
	"<": precRel, ">": precRel, "<=": precRel, ">=": precRel,
	"instanceof": precRel, "in": precRel,
	"<<": precShift, ">>": precShift, ">>>": precShift,
	"+": precAdd, "-": precAdd,
	"*": precMul, "/": precMul, "%": precMul,
	"**": precExp,
}

func level(e ast.Expr) int {
	switch n := e.(type) {
	case *ast.Seq:
		return precSeq
	case *ast.Assign:
		return precAssign
	case *ast.Cond:
		return precCond
	case *ast.Logical:
		if n.Op == "||" {
			return precOr
		}
		return precAnd
	case *ast.Binary:
		return binLevel[n.Op]
	case *ast.Unary:
		return precUnary
	case *ast.Update:
		if n.Prefix {
			return precUnary
		}
		return precPostfix
	case *ast.Call, *ast.New, *ast.Member:
		return precCall
	case *ast.Func:
		// Function expressions parse at primary level but are fragile in
		// several positions; give them assignment level so they are wrapped
		// when used as operands.
		return precAssign
	case *ast.Number:
		if n.Value < 0 || math.Signbit(n.Value) {
			return precUnary
		}
		return precPrimary
	default:
		return precPrimary
	}
}

func (p *printer) expr(e ast.Expr, min int) {
	lv := level(e)
	if lv < min {
		p.char('(')
		p.exprRaw(e)
		p.char(')')
		return
	}
	p.exprRaw(e)
}

func (p *printer) exprRaw(e ast.Expr) {
	switch n := e.(type) {
	case *ast.Ident:
		p.str(n.Name)
	case *ast.Number:
		p.str(FormatNumber(n.Value))
	case *ast.Str:
		p.str(Quote(n.Value))
	case *ast.Bool:
		if n.Value {
			p.str("true")
		} else {
			p.str("false")
		}
	case *ast.Null:
		p.str("null")
	case *ast.This:
		p.str("this")
	case *ast.NewTarget:
		p.str("new.target")
	case *ast.Array:
		p.char('[')
		for i, el := range n.Elems {
			if i > 0 {
				p.str(", ")
			}
			if el == nil {
				continue // elision: the separators alone encode the hole
			}
			p.expr(el, precAssign)
		}
		// A trailing hole needs one more comma: `[1, ]` would re-parse at
		// length 1, `[1, , ]` at length 2.
		if len(n.Elems) > 0 && n.Elems[len(n.Elems)-1] == nil {
			p.str(", ")
		}
		p.char(']')
	case *ast.Object:
		p.str("{ ")
		for i, prop := range n.Props {
			if i > 0 {
				p.str(", ")
			}
			switch prop.Kind {
			case ast.PropInit:
				p.str(propKey(prop.Key))
				p.str(": ")
				p.expr(prop.Value, precAssign)
			case ast.PropGet, ast.PropSet:
				if prop.Kind == ast.PropGet {
					p.str("get ")
				} else {
					p.str("set ")
				}
				p.str(propKey(prop.Key))
				fn := prop.Value.(*ast.Func)
				p.paramsAndBody(fn)
			}
		}
		p.str(" }")
	case *ast.Func:
		if n.Arrow {
			p.char('(')
			for i, param := range n.Params {
				if i > 0 {
					p.str(", ")
				}
				p.str(param)
			}
			p.str(") => ")
			p.funcBody(n.Body)
			return
		}
		p.str("function")
		if n.Name != "" {
			p.char(' ')
			p.str(n.Name)
		}
		p.paramsAndBody(n)
	case *ast.Unary:
		p.str(n.Op)
		if n.Op == "typeof" || n.Op == "void" || n.Op == "delete" {
			p.char(' ')
		} else if u, ok := n.X.(*ast.Unary); ok && (u.Op == n.Op || (n.Op == "+" && u.Op == "++") || (n.Op == "-" && u.Op == "--")) {
			p.char(' ') // avoid `--x` from -(-x)
		} else if num, ok := n.X.(*ast.Number); ok && n.Op == "-" && num.Value >= 0 {
			// fine: -5
		}
		p.expr(n.X, precUnary)
	case *ast.Update:
		if n.Prefix {
			p.str(n.Op)
			p.expr(n.X, precUnary)
		} else {
			p.expr(n.X, precPostfix)
			p.str(n.Op)
		}
	case *ast.Binary:
		lv := binLevel[n.Op]
		rightMin := lv + 1
		leftMin := lv
		if n.Op == "**" { // right-associative
			leftMin, rightMin = lv+1, lv
		}
		p.expr(n.L, leftMin)
		p.char(' ')
		p.str(n.Op)
		p.char(' ')
		p.expr(n.R, rightMin)
	case *ast.Logical:
		lv := level(n)
		p.expr(n.L, lv)
		p.char(' ')
		p.str(n.Op)
		p.char(' ')
		p.expr(n.R, lv+1)
	case *ast.Assign:
		p.expr(n.Target, precCall)
		p.char(' ')
		p.str(n.Op)
		p.char(' ')
		p.expr(n.Value, precAssign)
	case *ast.Cond:
		p.expr(n.Test, precCond+1)
		p.str(" ? ")
		p.expr(n.Cons, precAssign)
		p.str(" : ")
		p.expr(n.Alt, precAssign)
	case *ast.Call:
		p.expr(n.Callee, precCall)
		p.args(n.Args)
	case *ast.New:
		p.str("new ")
		p.newCallee(n.Callee)
		p.args(n.Args)
	case *ast.Member:
		p.memberBase(n.X)
		if n.Computed {
			p.char('[')
			p.expr(n.Index, precSeq)
			p.char(']')
		} else {
			p.char('.')
			p.str(n.Name)
		}
	case *ast.Seq:
		for i, x := range n.Exprs {
			if i > 0 {
				p.str(", ")
			}
			p.expr(x, precAssign)
		}
	default:
		panic("printer: unknown expression")
	}
}

// memberBase prints the receiver of a member access, parenthesizing the
// cases that would mis-parse: numbers (1.x), new without args, functions.
func (p *printer) memberBase(x ast.Expr) {
	if num, ok := x.(*ast.Number); ok && num.Value >= 0 {
		p.char('(')
		p.exprRaw(x)
		p.char(')')
		return
	}
	p.expr(x, precCall)
}

// newCallee prints the constructor of a new-expression; calls inside must be
// parenthesized so the argument list attaches to the `new`.
func (p *printer) newCallee(x ast.Expr) {
	if containsCall(x) {
		p.char('(')
		p.exprRaw(x)
		p.char(')')
		return
	}
	p.expr(x, precCall)
}

func containsCall(x ast.Expr) bool {
	switch n := x.(type) {
	case *ast.Call:
		return true
	case *ast.Member:
		return containsCall(n.X)
	case *ast.Ident, *ast.This:
		return false
	}
	return true
}

func (p *printer) args(args []ast.Expr) {
	p.char('(')
	for i, a := range args {
		if i > 0 {
			p.str(", ")
		}
		p.expr(a, precAssign)
	}
	p.char(')')
}

func (p *printer) paramsAndBody(fn *ast.Func) {
	p.char('(')
	for i, param := range fn.Params {
		if i > 0 {
			p.str(", ")
		}
		p.str(param)
	}
	p.str(") ")
	p.funcBody(fn.Body)
}

func (p *printer) funcBody(body []ast.Stmt) {
	p.str("{\n")
	p.indent++
	for _, s := range body {
		p.stmt(s)
	}
	p.indent--
	p.ws()
	p.char('}')
}

func (p *printer) stmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.VarDecl:
		p.ws()
		p.str("var ")
		for i, d := range n.Decls {
			if i > 0 {
				p.str(", ")
			}
			p.str(d.Name)
			if d.Init != nil {
				p.str(" = ")
				p.expr(d.Init, precAssign)
			}
		}
		p.str(";\n")
	case *ast.ExprStmt:
		p.ws()
		if needsParensAsStmt(n.X) {
			p.char('(')
			p.exprRaw(n.X)
			p.char(')')
		} else {
			p.expr(n.X, 0)
		}
		p.str(";\n")
	case *ast.Block:
		p.ws()
		p.str("{\n")
		p.indent++
		for _, st := range n.Body {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *ast.If:
		p.ws()
		p.ifChain(n)
		p.char('\n')
	case *ast.While:
		p.ws()
		p.str("while (")
		p.expr(n.Test, 0)
		p.str(") ")
		p.nested(n.Body)
		p.char('\n')
	case *ast.DoWhile:
		p.ws()
		p.str("do ")
		p.nested(n.Body)
		p.str(" while (")
		p.expr(n.Test, 0)
		p.str(");\n")
	case *ast.For:
		p.ws()
		p.str("for (")
		switch init := n.Init.(type) {
		case nil:
		case *ast.VarDecl:
			p.str("var ")
			for i, d := range init.Decls {
				if i > 0 {
					p.str(", ")
				}
				p.str(d.Name)
				if d.Init != nil {
					p.str(" = ")
					p.expr(d.Init, precAssign)
				}
			}
		case *ast.ExprStmt:
			p.expr(init.X, 0)
		}
		p.str("; ")
		if n.Test != nil {
			p.expr(n.Test, 0)
		}
		p.str("; ")
		if n.Update != nil {
			p.expr(n.Update, 0)
		}
		p.str(") ")
		p.nested(n.Body)
		p.char('\n')
	case *ast.ForIn:
		p.ws()
		p.str("for (")
		if n.Decl {
			p.str("var ")
		}
		p.str(n.Name)
		p.str(" in ")
		p.expr(n.Obj, 0)
		p.str(") ")
		p.nested(n.Body)
		p.char('\n')
	case *ast.Return:
		p.ws()
		if n.Arg == nil {
			p.str("return;\n")
		} else {
			p.str("return ")
			p.expr(n.Arg, 0)
			p.str(";\n")
		}
	case *ast.Break:
		if n.Label != "" {
			p.line("break " + n.Label + ";")
		} else {
			p.line("break;")
		}
	case *ast.Continue:
		if n.Label != "" {
			p.line("continue " + n.Label + ";")
		} else {
			p.line("continue;")
		}
	case *ast.Labeled:
		p.ws()
		p.str(n.Label)
		p.str(": ")
		p.nested(n.Body)
		p.char('\n')
	case *ast.Switch:
		p.ws()
		p.str("switch (")
		p.expr(n.Disc, 0)
		p.str(") {\n")
		p.indent++
		for _, c := range n.Cases {
			p.ws()
			if c.Test == nil {
				p.str("default:\n")
			} else {
				p.str("case ")
				p.expr(c.Test, 0)
				p.str(":\n")
			}
			p.indent++
			for _, st := range c.Body {
				p.stmt(st)
			}
			p.indent--
		}
		p.indent--
		p.line("}")
	case *ast.Throw:
		p.ws()
		p.str("throw ")
		p.expr(n.Arg, 0)
		p.str(";\n")
	case *ast.Try:
		p.ws()
		p.str("try ")
		p.blockInline(n.Block)
		if n.Catch != nil {
			p.str(" catch (")
			p.str(n.CatchParam)
			p.str(") ")
			p.blockInline(n.Catch)
		}
		if n.Finally != nil {
			p.str(" finally ")
			p.blockInline(n.Finally)
		}
		p.char('\n')
	case *ast.FuncDecl:
		p.ws()
		p.str("function ")
		p.str(n.Fn.Name)
		p.paramsAndBody(n.Fn)
		p.char('\n')
	case *ast.Empty:
		p.line(";")
	default:
		panic("printer: unknown statement")
	}
}

// ifChain prints if/else-if/else without re-indenting at each else-if.
func (p *printer) ifChain(n *ast.If) {
	p.str("if (")
	p.expr(n.Test, 0)
	p.str(") ")
	// Guard against dangling-else: if the consequent is an if without an
	// else, wrap it in a block.
	cons := n.Cons
	if inner, ok := cons.(*ast.If); ok && inner.Alt == nil && n.Alt != nil {
		cons = &ast.Block{Body: []ast.Stmt{cons}}
	}
	p.nested(cons)
	if n.Alt == nil {
		return
	}
	p.str(" else ")
	if alt, ok := n.Alt.(*ast.If); ok {
		p.ifChain(alt)
		return
	}
	p.nested(n.Alt)
}

// nested prints a statement used as a loop/if body on the current line.
func (p *printer) nested(s ast.Stmt) {
	if b, ok := s.(*ast.Block); ok {
		p.blockInline(b)
		return
	}
	p.str("{\n")
	p.indent++
	p.stmt(s)
	p.indent--
	p.ws()
	p.char('}')
}

func (p *printer) blockInline(b *ast.Block) {
	p.str("{\n")
	p.indent++
	for _, s := range b.Body {
		p.stmt(s)
	}
	p.indent--
	p.ws()
	p.char('}')
}

// needsParensAsStmt reports whether the expression's first token would be
// `function` or `{`, which a statement position would mis-parse; the check
// follows every grammar position that can begin an expression.
func needsParensAsStmt(x ast.Expr) bool {
	switch n := x.(type) {
	case *ast.Func, *ast.Object:
		return true
	case *ast.Call:
		return needsParensAsStmt(n.Callee)
	case *ast.Member:
		return needsParensAsStmt(n.X)
	case *ast.Assign:
		return needsParensAsStmt(n.Target)
	case *ast.Binary:
		return needsParensAsStmt(n.L)
	case *ast.Logical:
		return needsParensAsStmt(n.L)
	case *ast.Cond:
		return needsParensAsStmt(n.Test)
	case *ast.Update:
		return !n.Prefix && needsParensAsStmt(n.X)
	case *ast.Seq:
		return len(n.Exprs) > 0 && needsParensAsStmt(n.Exprs[0])
	}
	return false
}

// propKey renders an object-literal key, quoting it unless it is a valid
// identifier.
func propKey(key string) string {
	if key == "" {
		return `""`
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		ok := c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return Quote(key)
		}
	}
	return key
}

// FormatNumber renders a float64 the way JavaScript's ToString does for the
// values this repository produces (finite doubles, NaN, infinities).
// smallIntStrings interns the decimal strings of small integers, the
// workhorse results of number-to-string coercion (array keys, counters in
// console output).
var smallIntStrings = func() [1024]string {
	var t [1024]string
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

func FormatNumber(v float64) string {
	switch {
	case v == 0:
		// Both zeros stringify to "0" (ES5 §9.8.1): String(-0) is "0", and
		// o[-0] must read the same property as o[0].
		return "0"
	case v == math.Trunc(v) && v > 0 && v < float64(len(smallIntStrings)):
		return smallIntStrings[int(v)]
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "Infinity"
	case math.IsInf(v, -1):
		return "-Infinity"
	case v == math.Trunc(v) && math.Abs(v) < 1e21:
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		// Number::toString: decimal notation from 1e-6 up to 1e21, and
		// d.ddde±x, the exponent unpadded, outside.
		if a := math.Abs(v); a >= 1e-6 && a < 1e21 {
			return strconv.FormatFloat(v, 'f', -1, 64)
		}
		mant, exp, _ := strings.Cut(strconv.FormatFloat(v, 'e', -1, 64), "e")
		x, _ := strconv.Atoi(exp)
		return mant + "e" + exp[:1] + strconv.Itoa(max(x, -x))
	}
}

// Quote renders a string literal with JavaScript escaping.
func Quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				b.WriteString("\\x")
				const hex = "0123456789abcdef"
				b.WriteByte(hex[r>>4])
				b.WriteByte(hex[r&0xf])
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
