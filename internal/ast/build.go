package ast

// Construction helpers used pervasively by the compiler passes. They build
// position-less (synthesized) nodes; passes that care about source mapping
// copy positions from the nodes they replace.

// Id returns an identifier expression.
func Id(name string) *Ident { return &Ident{Name: name} }

// Num returns a numeric literal.
func Num(v float64) *Number { return &Number{Value: v} }

// Int returns a numeric literal from an int.
func Int(v int) *Number { return &Number{Value: float64(v)} }

// Strlit returns a string literal.
func Strlit(v string) *Str { return &Str{Value: v} }

// Boollit returns a boolean literal.
func Boollit(v bool) *Bool { return &Bool{Value: v} }

// Undef returns the canonical `undefined` reference.
func Undef() Expr { return &Ident{Name: "undefined"} }

// CallN builds a call expression.
func CallN(callee Expr, args ...Expr) *Call { return &Call{Callee: callee, Args: args} }

// CallId builds a call to a named function.
func CallId(name string, args ...Expr) *Call { return CallN(Id(name), args...) }

// NewN builds a new-expression.
func NewN(callee Expr, args ...Expr) *New { return &New{Callee: callee, Args: args} }

// Dot builds a non-computed member access x.name.
func Dot(x Expr, name string) *Member { return &Member{X: x, Name: name} }

// Idx builds a computed member access x[i].
func Idx(x Expr, i Expr) *Member { return &Member{X: x, Index: i, Computed: true} }

// Bin builds a binary expression.
func Bin(op string, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// Log builds a logical expression.
func Log(op string, l, r Expr) *Logical { return &Logical{Op: op, L: l, R: r} }

// Not builds !x.
func Not(x Expr) *Unary { return &Unary{Op: "!", X: x} }

// SetTo builds the assignment target = value.
func SetTo(target Expr, value Expr) *Assign { return &Assign{Op: "=", Target: target, Value: value} }

// SetId builds name = value.
func SetId(name string, value Expr) *Assign { return SetTo(Id(name), value) }

// Var builds `var name = init;` (init may be nil).
func Var(name string, init Expr) *VarDecl {
	return &VarDecl{Decls: []Declarator{{Name: name, Init: init}}}
}

// ExprOf wraps an expression as a statement.
func ExprOf(x Expr) *ExprStmt { return &ExprStmt{X: x} }

// BlockOf wraps statements in a block.
func BlockOf(body ...Stmt) *Block { return &Block{Body: body} }

// IfThen builds an if with no else.
func IfThen(test Expr, cons ...Stmt) *If { return &If{Test: test, Cons: BlockOf(cons...)} }

// IfElse builds an if/else.
func IfElse(test Expr, cons Stmt, alt Stmt) *If { return &If{Test: test, Cons: cons, Alt: alt} }

// Ret builds a return statement.
func Ret(arg Expr) *Return { return &Return{Arg: arg} }

// Fn builds an anonymous function expression.
func Fn(params []string, body ...Stmt) *Func { return &Func{Params: params, Body: body} }
