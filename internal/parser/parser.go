// Package parser parses the JavaScript subset defined in internal/ast.
//
// It is a hand-written recursive-descent parser with precedence climbing for
// binary operators, automatic semicolon insertion, and support for the ES6
// features Stopify relies on (arrow functions and new.target). let and const
// are accepted and normalized to var declarations: the code this repository
// compiles — compiler output and benchmark programs — does not depend on
// temporal-dead-zone semantics.
package parser

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/lexer"
)

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Parse parses a complete program.
func Parse(src string) (prog *ast.Program, err error) {
	p := &parser{}
	defer p.recoverTo(&err)
	p.begin(src)
	prog = &ast.Program{Pos: ast.Pos{Line: 1, Col: 1}}
	for !p.at(lexer.EOF, "") {
		prog.Body = append(prog.Body, p.statement())
	}
	prog.Guest, prog.Uses = p.guest, p.uses
	return prog, nil
}

// ParseExpr parses a single expression (used by tests and the REPL).
func ParseExpr(src string) (expr ast.Expr, err error) {
	p := &parser{}
	defer p.recoverTo(&err)
	p.begin(src)
	expr = p.expression(false)
	if !p.at(lexer.EOF, "") {
		return nil, p.errAtCur("unexpected trailing tokens")
	}
	return expr, nil
}

type parser struct {
	// The tokens are pulled from sc into a window: toks[pos] is the
	// current token, toks[pos-1] the one before it, and what lies past pos
	// is lookahead. toks starts on win; see scan.
	sc   lexer.Scanner
	toks []lexer.Token
	pos  int
	win  [16]lexer.Token

	// guest is the source's `$` identifiers (ast.Program.Guest): every
	// name it binds or references, and its `$` property names, which the
	// names the compiler makes up lose nothing by avoiding as well.
	guest ast.Names

	// uses is what the source spells (ast.Program.Uses), noted token by
	// token as scan reads them; object counts the tokens still to come that
	// decide what an Object just read means (note).
	uses   ast.Uses
	object uint8

	// The jump context of the statement being parsed, which the early
	// errors on break, continue and return read: the labels enclosing it
	// (labels[jc.labelBase:] are its function's) and what jc counts. A
	// function body starts a context of its own and restores the outer one.
	labels []jumpLabel
	jc     jumpCtx

	// depth counts the statements, assignment expressions, unary
	// expressions, binary right operands and `new` callees being parsed,
	// one inside the other (nest).
	depth int
}

// maxNesting bounds depth. Every recursion of the grammar passes through one
// of those productions, so a source nested past it is refused before it can
// exhaust the Go stack, here or in any pass that recurses on the tree after.
// It costs an array, parenthesis or object literal two levels and a block,
// `!`, `a =`, `?`, `**`, `new` or `if` one, so 2 047 levels of `[` parse;
// node runs 2 000 and refuses 5 000 (DESIGN_interp.md, "Nesting bound").
const maxNesting = 4096

// nest enters one more level, and refuses the source past maxNesting with
// the message node's parser gives when its stack runs out.
func (p *parser) nest() {
	p.depth++
	if p.depth > maxNesting {
		p.fail("Maximum call stack size exceeded")
	}
}

type jumpLabel struct {
	name string
	loop bool // names an iteration statement, so continue may target it
}

type jumpCtx struct {
	labelBase, loops, switches int
	inFunc                     bool
}

// parseBail carries a parse error out of deep recursion via panic; the
// exported entry points recover it. This keeps the grammar functions free of
// error plumbing, the same pattern the standard library's regexp parser uses.
type parseBail struct{ err error }

func (p *parser) recoverTo(err *error) {
	if r := recover(); r != nil {
		bail, ok := r.(parseBail)
		if !ok {
			panic(r)
		}
		*err = bail.err
	}
}

// begin scans the first token of src.
func (p *parser) begin(src string) {
	p.sc = lexer.NewScanner(src)
	p.toks = p.win[:0]
	p.scan()
}

// scan appends the next token to the window. A full window is first
// compacted in place, down to prev() and the lookahead; only a lookahead as
// long as the window grows it (an arrow's list of seven parameters or more,
// or a chain of as many labels).
func (p *parser) scan() {
	if len(p.toks) == cap(p.toks) && p.pos > 1 {
		p.toks = p.toks[:copy(p.toks, p.toks[p.pos-1:])]
		p.pos = 1
	}
	t, err := p.sc.Next()
	if err != nil {
		panic(parseBail{err})
	}
	if t.Kind == lexer.Ident && t.Text[0] == '$' {
		if p.guest == nil {
			p.guest = ast.Names{}
		}
		p.guest[t.Text] = true
	}
	p.note(t)
	p.toks = append(p.toks, t)
}

// note adds to p.uses what t spells. Object followed by a dot and a name
// other than defineProperty and defineProperties reaches no accessor;
// anything else after it may, so it is judged on the two tokens that follow.
func (p *parser) note(t lexer.Token) {
	switch p.object {
	case 2:
		p.object = 0
		if isPunct(t, ".") {
			p.object = 1
		} else {
			p.uses |= ast.UsesAccessors
		}
	case 1:
		p.object = 0
		if t.Kind != lexer.Ident && t.Kind != lexer.Keyword || t.Text == "defineProperty" || t.Text == "defineProperties" {
			p.uses |= ast.UsesAccessors
		}
	}
	switch {
	case t.Kind == lexer.Ident:
		switch t.Text {
		case "valueOf", "toString":
			p.uses |= ast.UsesConversions
		case "arguments":
			p.uses |= ast.UsesArguments
		case "eval":
			p.uses |= ast.UsesEval
		case "Object":
			p.object = 2
		}
	case t.Kind == lexer.String && (t.Str == "valueOf" || t.Str == "toString"):
		p.uses |= ast.UsesConversions
	}
}

func (p *parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *parser) prev() lexer.Token { return p.toks[p.pos-1] }

// peekAt returns the token i past the current one, scanning up to it; past
// the end of input it is the EOF token.
func (p *parser) peekAt(i int) lexer.Token {
	for p.pos+i >= len(p.toks) {
		if last := p.toks[len(p.toks)-1]; last.Kind == lexer.EOF {
			return last
		}
		p.scan()
	}
	return p.toks[p.pos+i]
}

func (p *parser) at(kind lexer.Kind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func isPunct(t lexer.Token, text string) bool { return t.Kind == lexer.Punct && t.Text == text }

func (p *parser) atPunct(text string) bool   { return p.at(lexer.Punct, text) }
func (p *parser) atKeyword(text string) bool { return p.at(lexer.Keyword, text) }

func (p *parser) advance() lexer.Token {
	t := p.cur()
	if t.Kind != lexer.EOF {
		p.pos++
		if p.pos == len(p.toks) {
			p.scan()
		}
	}
	return t
}

func (p *parser) eat(kind lexer.Kind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind lexer.Kind, text string) lexer.Token {
	if !p.at(kind, text) {
		panic(parseBail{p.errAtCur("expected %q, found %q", text, p.cur().Text)})
	}
	return p.advance()
}

func (p *parser) errAtCur(format string, args ...any) error {
	t := p.cur()
	what := t.Text
	if t.Kind == lexer.EOF {
		what = "end of input"
	}
	msg := fmt.Sprintf(format, args...)
	return &Error{Line: t.Line, Col: t.Col, Msg: msg + " (at " + what + ")"}
}

func (p *parser) fail(format string, args ...any) {
	panic(parseBail{p.errAtCur(format, args...)})
}

func posOf(t lexer.Token) ast.Pos { return ast.Pos{Line: t.Line, Col: t.Col} }

// semicolon consumes a statement terminator, applying automatic semicolon
// insertion: an explicit `;`, a following `}`, end of input, or a line
// terminator after the previous token all terminate the statement.
func (p *parser) semicolon() {
	if p.eat(lexer.Punct, ";") {
		return
	}
	if p.atPunct("}") || p.at(lexer.EOF, "") {
		return
	}
	if p.pos > 0 && p.prev().NLAfter {
		return
	}
	p.fail("expected ';'")
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// statement parses one statement, a level deeper.
func (p *parser) statement() ast.Stmt {
	p.nest()
	s := p.stmt()
	p.depth--
	return s
}

func (p *parser) stmt() ast.Stmt {
	t := p.cur()
	switch {
	case p.atPunct("{"):
		return p.block()
	case p.atPunct(";"):
		p.advance()
		return &ast.Empty{P: posOf(t)}
	case p.atKeyword("var"), p.atKeyword("let"), p.atKeyword("const"):
		d := p.varDecl(false)
		p.semicolon()
		return d
	case p.atKeyword("function"):
		p.advance()
		fn := p.functionRest(posOf(t), false)
		if fn.Name == "" {
			p.fail("function declaration requires a name")
		}
		return &ast.FuncDecl{P: posOf(t), Fn: fn}
	case p.atKeyword("if"):
		return p.ifStmt()
	case p.atKeyword("while"):
		return p.whileStmt()
	case p.atKeyword("do"):
		return p.doWhileStmt()
	case p.atKeyword("for"):
		return p.forStmt()
	case p.atKeyword("return"):
		if !p.jc.inFunc {
			p.fail("Illegal return statement")
		}
		p.advance()
		ret := &ast.Return{P: posOf(t)}
		if !p.atPunct(";") && !p.atPunct("}") && !p.at(lexer.EOF, "") && !t.NLAfter {
			ret.Arg = p.expression(false)
		}
		p.semicolon()
		return ret
	case p.atKeyword("break"), p.atKeyword("continue"):
		p.advance()
		label := ""
		if p.at(lexer.Ident, "") && !t.NLAfter {
			label = p.advance().Text
		}
		p.jump(t.Text == "break", label)
		p.semicolon()
		if t.Text == "break" {
			return &ast.Break{P: posOf(t), Label: label}
		}
		return &ast.Continue{P: posOf(t), Label: label}
	case p.atKeyword("switch"):
		return p.switchStmt()
	case p.atKeyword("throw"):
		p.advance()
		if t.NLAfter {
			p.fail("illegal newline after throw")
		}
		arg := p.expression(false)
		p.semicolon()
		return &ast.Throw{P: posOf(t), Arg: arg}
	case p.atKeyword("try"):
		return p.tryStmt()
	case t.Kind == lexer.Ident && isPunct(p.peekAt(1), ":"):
		p.advance()
		p.advance()
		if p.label(t.Text) != nil {
			p.fail("Label '%s' has already been declared", t.Text)
		}
		p.labels = append(p.labels, jumpLabel{t.Text, p.atLoop()})
		body := p.statement()
		p.labels = p.labels[:len(p.labels)-1]
		return &ast.Labeled{P: posOf(t), Label: t.Text, Body: body}
	default:
		x := p.expression(false)
		p.semicolon()
		return &ast.ExprStmt{P: posOf(t), X: x}
	}
}

// jump checks a break or continue against the jump context, as JavaScript's
// early errors do.
func (p *parser) jump(brk bool, label string) {
	l := p.label(label)
	switch {
	case label == "" && brk && p.jc.loops+p.jc.switches == 0:
		p.fail("Illegal break statement")
	case label == "" && !brk && p.jc.loops == 0:
		p.fail("Illegal continue statement: no surrounding iteration statement")
	case label != "" && l == nil:
		p.fail("Undefined label '%s'", label)
	case label != "" && !brk && !l.loop:
		p.fail("Illegal continue statement: '%s' does not denote an iteration statement", label)
	}
}

// label finds name among the current function's enclosing labels.
func (p *parser) label(name string) *jumpLabel {
	for i := len(p.labels) - 1; i >= p.jc.labelBase; i-- {
		if p.labels[i].name == name {
			return &p.labels[i]
		}
	}
	return nil
}

// atLoop reports whether the statement here, past any further labels, is an
// iteration statement.
func (p *parser) atLoop() bool {
	i := 0
	for p.peekAt(i).Kind == lexer.Ident && isPunct(p.peekAt(i+1), ":") {
		i += 2
	}
	t := p.peekAt(i)
	return t.Kind == lexer.Keyword && (t.Text == "while" || t.Text == "do" || t.Text == "for")
}

// loopBody parses an iteration statement's body, where break and continue
// have a target.
func (p *parser) loopBody() ast.Stmt {
	p.jc.loops++
	body := p.statement()
	p.jc.loops--
	return body
}

// funcBody parses a function's block in a jump context of its own.
func (p *parser) funcBody() []ast.Stmt {
	outer := p.jc
	p.jc = jumpCtx{labelBase: len(p.labels), inFunc: true}
	body := p.block().Body
	p.jc = outer
	return body
}

func (p *parser) block() *ast.Block {
	t := p.expect(lexer.Punct, "{")
	b := &ast.Block{P: posOf(t)}
	for !p.atPunct("}") && !p.at(lexer.EOF, "") {
		b.Body = append(b.Body, p.statement())
	}
	p.expect(lexer.Punct, "}")
	return b
}

func (p *parser) varDecl(noIn bool) *ast.VarDecl {
	t := p.advance() // var / let / const
	d := &ast.VarDecl{P: posOf(t)}
	for {
		name := p.identName()
		var init ast.Expr
		if p.eat(lexer.Punct, "=") {
			init = p.assignExpr(noIn)
		}
		d.Decls = append(d.Decls, ast.Declarator{Name: name, Init: init})
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	return d
}

func (p *parser) identName() string {
	if !p.at(lexer.Ident, "") {
		p.fail("expected identifier")
	}
	return p.advance().Text
}

func (p *parser) parenExpr() ast.Expr {
	p.expect(lexer.Punct, "(")
	x := p.expression(false)
	p.expect(lexer.Punct, ")")
	return x
}

func (p *parser) ifStmt() ast.Stmt {
	t := p.advance()
	test := p.parenExpr()
	cons := p.statement()
	var alt ast.Stmt
	if p.eat(lexer.Keyword, "else") {
		alt = p.statement()
	}
	return &ast.If{P: posOf(t), Test: test, Cons: cons, Alt: alt}
}

func (p *parser) whileStmt() ast.Stmt {
	t := p.advance()
	test := p.parenExpr()
	return &ast.While{P: posOf(t), Test: test, Body: p.loopBody()}
}

func (p *parser) doWhileStmt() ast.Stmt {
	t := p.advance()
	body := p.loopBody()
	p.expect(lexer.Keyword, "while")
	test := p.parenExpr()
	p.eat(lexer.Punct, ";")
	return &ast.DoWhile{P: posOf(t), Body: body, Test: test}
}

func (p *parser) forStmt() ast.Stmt {
	t := p.advance()
	p.expect(lexer.Punct, "(")
	var init ast.Stmt
	if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
		d := p.varDecl(true)
		if p.atKeyword("in") && len(d.Decls) == 1 && d.Decls[0].Init == nil {
			p.advance()
			obj := p.expression(false)
			p.expect(lexer.Punct, ")")
			return &ast.ForIn{P: posOf(t), Decl: true, Name: d.Decls[0].Name, Obj: obj, Body: p.loopBody()}
		}
		init = d
	} else if !p.atPunct(";") {
		x := p.expression(true)
		if p.atKeyword("in") {
			id, ok := x.(*ast.Ident)
			if !ok {
				p.fail("for-in target must be an identifier")
			}
			p.advance()
			obj := p.expression(false)
			p.expect(lexer.Punct, ")")
			return &ast.ForIn{P: posOf(t), Name: id.Name, Obj: obj, Body: p.loopBody()}
		}
		init = &ast.ExprStmt{P: x.Position(), X: x}
	}
	p.expect(lexer.Punct, ";")
	var test ast.Expr
	if !p.atPunct(";") {
		test = p.expression(false)
	}
	p.expect(lexer.Punct, ";")
	var update ast.Expr
	if !p.atPunct(")") {
		update = p.expression(false)
	}
	p.expect(lexer.Punct, ")")
	return &ast.For{P: posOf(t), Init: init, Test: test, Update: update, Body: p.loopBody()}
}

func (p *parser) switchStmt() ast.Stmt {
	t := p.advance()
	disc := p.parenExpr()
	p.expect(lexer.Punct, "{")
	sw := &ast.Switch{P: posOf(t), Disc: disc}
	sawDefault := false
	p.jc.switches++
	for !p.atPunct("}") && !p.at(lexer.EOF, "") {
		var c ast.Case
		if p.eat(lexer.Keyword, "case") {
			c.Test = p.expression(false)
		} else {
			p.expect(lexer.Keyword, "default")
			if sawDefault {
				p.fail("multiple default clauses")
			}
			sawDefault = true
		}
		p.expect(lexer.Punct, ":")
		for !p.atPunct("}") && !p.atKeyword("case") && !p.atKeyword("default") && !p.at(lexer.EOF, "") {
			c.Body = append(c.Body, p.statement())
		}
		sw.Cases = append(sw.Cases, c)
	}
	p.jc.switches--
	p.expect(lexer.Punct, "}")
	return sw
}

func (p *parser) tryStmt() ast.Stmt {
	t := p.advance()
	try := &ast.Try{P: posOf(t), Block: p.block()}
	if p.eat(lexer.Keyword, "catch") {
		p.expect(lexer.Punct, "(")
		try.CatchParam = p.identName()
		p.expect(lexer.Punct, ")")
		try.Catch = p.block()
	}
	if p.eat(lexer.Keyword, "finally") {
		try.Finally = p.block()
	}
	if try.Catch == nil && try.Finally == nil {
		p.fail("try requires catch or finally")
	}
	return try
}

// functionRest parses a function literal after the `function` keyword (or,
// for arrows, is not used — see arrowFunction).
func (p *parser) functionRest(pos ast.Pos, exprCtx bool) *ast.Func {
	fn := &ast.Func{P: pos}
	if p.at(lexer.Ident, "") {
		fn.Name = p.advance().Text
	}
	p.expect(lexer.Punct, "(")
	for !p.atPunct(")") {
		fn.Params = append(fn.Params, p.identName())
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, ")")
	fn.Body = p.funcBody()
	if exprCtx {
		fn.Self = fn.Name
	}
	return fn
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (p *parser) expression(noIn bool) ast.Expr {
	x := p.assignExpr(noIn)
	if !p.atPunct(",") {
		return x
	}
	seq := &ast.Seq{P: x.Position(), Exprs: []ast.Expr{x}}
	for p.eat(lexer.Punct, ",") {
		seq.Exprs = append(seq.Exprs, p.assignExpr(noIn))
	}
	return seq
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true, ">>>=": true,
	"**=": true,
}

// assignExpr parses an assignment expression, a level deeper.
func (p *parser) assignExpr(noIn bool) ast.Expr {
	p.nest()
	x := p.tryArrow()
	if x == nil {
		x = p.condExpr(noIn)
		if t := p.cur(); t.Kind == lexer.Punct && assignOps[t.Text] {
			switch x.(type) {
			case *ast.Ident, *ast.Member:
			default:
				p.fail("invalid assignment target")
			}
			p.advance()
			x = &ast.Assign{P: x.Position(), Op: t.Text, Target: x, Value: p.assignExpr(noIn)}
		}
	}
	p.depth--
	return x
}

// tryArrow detects and parses an arrow function at the current position.
// It returns nil (with no tokens consumed) if the lookahead does not find
// one.
func (p *parser) tryArrow() ast.Expr {
	t := p.cur()
	if t.Kind == lexer.Ident && isPunct(p.peekAt(1), "=>") {
		p.advance()
		p.advance()
		return p.arrowBody(posOf(t), []string{t.Text})
	}
	if !p.atPunct("(") {
		return nil
	}
	// Look for the only parameter list there is, the one parsed below:
	// ( [name {, name} [,]] ) =>.
	i := 1
	for p.peekAt(i).Kind == lexer.Ident {
		if !isPunct(p.peekAt(i+1), ",") {
			i++
			break
		}
		i += 2
	}
	if !isPunct(p.peekAt(i), ")") || !isPunct(p.peekAt(i+1), "=>") {
		return nil
	}
	p.advance() // (
	var params []string
	for p.at(lexer.Ident, "") {
		params = append(params, p.advance().Text)
		p.eat(lexer.Punct, ",")
	}
	p.advance() // )
	p.advance() // =>
	return p.arrowBody(posOf(t), params)
}

func (p *parser) arrowBody(pos ast.Pos, params []string) ast.Expr {
	fn := &ast.Func{P: pos, Params: params, Arrow: true}
	if p.atPunct("{") {
		fn.Body = p.funcBody()
	} else {
		arg := p.assignExpr(false)
		fn.Body = []ast.Stmt{&ast.Return{P: arg.Position(), Arg: arg}}
	}
	return fn
}

func (p *parser) condExpr(noIn bool) ast.Expr {
	test := p.binaryExpr(0, noIn)
	if !p.eat(lexer.Punct, "?") {
		return test
	}
	cons := p.assignExpr(false)
	p.expect(lexer.Punct, ":")
	alt := p.assignExpr(noIn)
	return &ast.Cond{P: test.Position(), Test: test, Cons: cons, Alt: alt}
}

// binary operator precedence; logical operators are lowest.
var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7, "in": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
	"**": 11,
}

func (p *parser) binaryExpr(minPrec int, noIn bool) ast.Expr {
	left := p.unaryExpr()
	for {
		t := p.cur()
		op := t.Text
		if t.Kind != lexer.Punct && !(t.Kind == lexer.Keyword && (op == "instanceof" || op == "in")) {
			return left
		}
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return left
		}
		if op == "in" && noIn {
			return left
		}
		p.advance()
		next := prec + 1
		if op == "**" { // right-associative
			next = prec
		}
		p.nest()
		right := p.binaryExpr(next, noIn)
		p.depth--
		if op == "&&" || op == "||" {
			left = &ast.Logical{P: left.Position(), Op: op, L: left, R: right}
		} else {
			left = &ast.Binary{P: left.Position(), Op: op, L: left, R: right}
		}
	}
}

// unaryExpr parses a unary expression, a level deeper.
func (p *parser) unaryExpr() ast.Expr {
	p.nest()
	t := p.cur()
	var x ast.Expr
	switch {
	case p.atPunct("!") || p.atPunct("~") || p.atPunct("+") || p.atPunct("-") ||
		p.atKeyword("typeof") || p.atKeyword("void") || p.atKeyword("delete"):
		p.advance()
		x = &ast.Unary{P: posOf(t), Op: t.Text, X: p.unaryExpr()}
	case p.atPunct("++") || p.atPunct("--"):
		p.advance()
		arg := p.unaryExpr()
		p.checkUpdateTarget(arg)
		x = &ast.Update{P: posOf(t), Op: t.Text, Prefix: true, X: arg}
	default:
		x = p.postfixExpr()
	}
	p.depth--
	return x
}

func (p *parser) checkUpdateTarget(x ast.Expr) {
	switch x.(type) {
	case *ast.Ident, *ast.Member:
	default:
		p.fail("invalid increment/decrement target")
	}
}

func (p *parser) postfixExpr() ast.Expr {
	x := p.callExpr()
	t := p.cur()
	if (p.atPunct("++") || p.atPunct("--")) && !p.prev().NLAfter {
		p.advance()
		p.checkUpdateTarget(x)
		return &ast.Update{P: x.Position(), Op: t.Text, Prefix: false, X: x}
	}
	return x
}

// callExpr parses member accesses, calls, and new-expressions.
func (p *parser) callExpr() ast.Expr {
	var x ast.Expr
	if p.atKeyword("new") {
		x = p.newExpr()
	} else {
		x = p.primaryExpr()
	}
	for {
		switch {
		case p.atPunct("."):
			p.advance()
			x = &ast.Member{P: x.Position(), X: x, Name: p.propertyName()}
		case p.atPunct("["):
			p.advance()
			idx := p.expression(false)
			p.expect(lexer.Punct, "]")
			x = &ast.Member{P: x.Position(), X: x, Index: idx, Computed: true}
		case p.atPunct("("):
			x = &ast.Call{P: x.Position(), Callee: x, Args: p.arguments()}
		default:
			return x
		}
	}
}

// newExpr parses `new expr(args)` and `new.target`.
func (p *parser) newExpr() ast.Expr {
	t := p.advance() // new
	if p.eat(lexer.Punct, ".") {
		name := p.propertyName()
		if name != "target" {
			p.fail("unknown meta-property new.%s", name)
		}
		return &ast.NewTarget{P: posOf(t)}
	}
	var callee ast.Expr
	if p.atKeyword("new") {
		p.nest()
		callee = p.newExpr()
		p.depth--
	} else {
		callee = p.primaryExpr()
	}
	// Member accesses bind tighter than the new's argument list.
	for {
		switch {
		case p.atPunct("."):
			p.advance()
			callee = &ast.Member{P: callee.Position(), X: callee, Name: p.propertyName()}
		case p.atPunct("["):
			p.advance()
			idx := p.expression(false)
			p.expect(lexer.Punct, "]")
			callee = &ast.Member{P: callee.Position(), X: callee, Index: idx, Computed: true}
		default:
			var args []ast.Expr
			if p.atPunct("(") {
				args = p.arguments()
			}
			return &ast.New{P: posOf(t), Callee: callee, Args: args}
		}
	}
}

// propertyName accepts identifiers and keywords after a dot.
func (p *parser) propertyName() string {
	t := p.cur()
	if t.Kind == lexer.Ident || t.Kind == lexer.Keyword {
		p.advance()
		return t.Text
	}
	p.fail("expected property name")
	return ""
}

func (p *parser) arguments() []ast.Expr {
	p.expect(lexer.Punct, "(")
	var args []ast.Expr
	for !p.atPunct(")") {
		args = append(args, p.assignExpr(false))
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, ")")
	return args
}

func (p *parser) primaryExpr() ast.Expr {
	t := p.cur()
	switch {
	case t.Kind == lexer.Number:
		p.advance()
		return &ast.Number{P: posOf(t), Value: t.Num}
	case t.Kind == lexer.String:
		p.advance()
		return &ast.Str{P: posOf(t), Value: t.Str}
	case t.Kind == lexer.Ident:
		p.advance()
		return &ast.Ident{P: posOf(t), Name: t.Text}
	case p.atKeyword("true"), p.atKeyword("false"):
		p.advance()
		return &ast.Bool{P: posOf(t), Value: t.Text == "true"}
	case p.atKeyword("null"):
		p.advance()
		return &ast.Null{P: posOf(t)}
	case p.atKeyword("this"):
		p.advance()
		return &ast.This{P: posOf(t)}
	case p.atKeyword("function"):
		p.advance()
		return p.functionRest(posOf(t), true)
	case p.atPunct("("):
		p.advance()
		x := p.expression(false)
		p.expect(lexer.Punct, ")")
		return x
	case p.atPunct("["):
		return p.arrayLiteral()
	case p.atPunct("{"):
		return p.objectLiteral()
	}
	p.fail("unexpected token")
	return nil
}

func (p *parser) arrayLiteral() ast.Expr {
	t := p.expect(lexer.Punct, "[")
	arr := &ast.Array{P: posOf(t)}
	for !p.atPunct("]") {
		// Elision: a comma where an element would start contributes a hole
		// (nil Expr). A single comma after the last element is the usual
		// trailing comma and adds nothing, which this loop structure gets
		// right: `[1,,]` parses the 1, eats its separator, then sees one
		// more comma before `]` — one hole, length 2.
		if p.atPunct(",") {
			p.eat(lexer.Punct, ",")
			arr.Elems = append(arr.Elems, nil)
			continue
		}
		arr.Elems = append(arr.Elems, p.assignExpr(false))
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, "]")
	return arr
}

func (p *parser) objectLiteral() ast.Expr {
	t := p.expect(lexer.Punct, "{")
	obj := &ast.Object{P: posOf(t)}
	for !p.atPunct("}") {
		obj.Props = append(obj.Props, p.objectProperty())
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, "}")
	return obj
}

func (p *parser) objectProperty() ast.Property {
	t := p.cur()
	// Accessor: `get name() {}` / `set name(v) {}` — but `get: expr` is a
	// plain property named "get".
	if t.Kind == lexer.Ident && (t.Text == "get" || t.Text == "set") {
		next := p.peekAt(1)
		if next.Kind == lexer.Ident || next.Kind == lexer.Keyword ||
			next.Kind == lexer.String || next.Kind == lexer.Number {
			p.uses |= ast.UsesAccessors
			p.advance()
			key := p.propertyKey()
			fn := &ast.Func{P: posOf(t)}
			p.expect(lexer.Punct, "(")
			for !p.atPunct(")") {
				fn.Params = append(fn.Params, p.identName())
				if !p.eat(lexer.Punct, ",") {
					break
				}
			}
			p.expect(lexer.Punct, ")")
			fn.Body = p.funcBody()
			kind := ast.PropGet
			if t.Text == "set" {
				kind = ast.PropSet
			}
			return ast.Property{Kind: kind, Key: key, Value: fn}
		}
	}
	key := p.propertyKey()
	p.expect(lexer.Punct, ":")
	return ast.Property{Kind: ast.PropInit, Key: key, Value: p.assignExpr(false)}
}

func (p *parser) propertyKey() string {
	t := p.cur()
	switch t.Kind {
	case lexer.Ident, lexer.Keyword:
		p.advance()
		return t.Text
	case lexer.String:
		p.advance()
		return t.Str
	case lexer.Number:
		p.advance()
		return numToPropKey(t.Num)
	}
	p.fail("expected property key")
	return ""
}

func numToPropKey(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
