// Package ast defines the abstract syntax tree for the JavaScript subset
// understood by this repository: the sub-language that compilers targeting
// the web actually emit (ES5 plus arrow functions and new.target), which is
// exactly the fragment Stopify instruments.
//
// Every node records the source position of its first token so that
// downstream tools (breakpoints, single-stepping, error messages) can map
// instrumented code back to the original program, playing the role of the
// source maps described in §5.2 of the paper.
package ast

import "sync/atomic"

// Pos is a source position. Line and Col are 1-based; the zero Pos means
// "no position" (synthesized code).
type Pos struct {
	Line int
	Col  int
}

// Known reports whether the position refers to real source text.
func (p Pos) Known() bool { return p.Line > 0 }

// Node is implemented by every AST node.
type Node interface {
	Position() Pos
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Program is a complete source file: a list of top-level statements.
type Program struct {
	Pos  Pos
	Body []Stmt

	// Sites is the site allocator's state once internal/resolve has
	// numbered this tree: no site ID in Body exceeds it, so a realm whose
	// inline-cache tables reach this far can run the tree.
	Sites Sites

	// Guest is the set of `$` identifiers in the guest's own source,
	// recorded by the parser; every name a compile pass makes up avoids it.
	// A pass that wraps a parsed program's statements in a program of its
	// own carries the set over.
	Guest Names

	// Uses is what the parser saw the guest's source spell of the features
	// a sub-language option instruments for; core compiles under no more of
	// them than the program uses.
	Uses Uses
}

// Uses is a set of Uses* facts about a source's text.
type Uses uint8

// The facts the parser records, each a spelling in the source.
const (
	// UsesConversions: an identifier, property name or string literal
	// spells valueOf or toString.
	UsesConversions Uses = 1 << iota
	// UsesAccessors: an accessor literal, or Object anywhere but as
	// Object.<name> with a name other than defineProperty and
	// defineProperties. The realm installs accessors through nothing else,
	// and reaches Object through nothing but its global name.
	UsesAccessors
	// UsesArguments: the name arguments.
	UsesArguments
	// UsesEval: the name eval.
	UsesEval
)

// Sites allocates inline-cache site IDs: each field is the last ID handed
// out of its kind, so the zero value starts a fresh numbering at 1 (ID 0
// means "no cache"). IDs are dense within one allocator and mean nothing
// across allocators: every tree a realm runs must be numbered from one
// sequence — the compiled program's, which eval and REPL fragments then
// continue.
type Sites struct {
	Member uint32 // non-computed ast.Member accesses
	Global uint32 // proved-global ast.Ident references
}

func (p *Program) Position() Pos { return p.Pos }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Ident is a variable reference. Ref is what internal/resolve found: a
// (hops, slot) coordinate, RefGlobal, or zero for a coordinate too large to
// pack, which is looked up by name (scope.go); or, set before resolve by the
// pass that built it, the mark of a runtime reference (intrinsic.go).
type Ident struct {
	P    Pos
	Name string
	Ref  Ref

	// Site is the inline-cache site ID assigned by internal/resolve to
	// proved-global references, indexing the interpreter's global-binding
	// cell cache; 0 means no cache.
	Site uint32
}

// Number is a numeric literal. JavaScript numbers are IEEE-754 doubles.
// There is no pre-boxed annotation anymore: the interpreter's tagged Value
// representation carries literals unboxed, so evaluating one never
// allocates regardless of the bit pattern.
type Number struct {
	P     Pos
	Value float64
}

// Str is a string literal. As with Number, the tagged Value representation
// made the historical pre-boxed annotation redundant — a string Value is a
// (pointer, length) pair aliasing this node's Value field.
type Str struct {
	P     Pos
	Value string
}

// Bool is a boolean literal.
type Bool struct {
	P     Pos
	Value bool
}

// Null is the null literal.
type Null struct {
	P Pos
}

// This is the `this` expression. Ref is the resolved coordinate of the
// enclosing non-arrow function's `this` binding, when known statically.
type This struct {
	P   Pos
	Ref Ref
}

// NewTarget is the ES6 `new.target` meta-property, which Stopify uses to
// distinguish constructor invocations from plain calls (§3.2). Ref is the
// resolved coordinate of the binding, when known statically.
type NewTarget struct {
	P   Pos
	Ref Ref
}

// Array is an array literal.
type Array struct {
	P     Pos
	Elems []Expr
}

// PropKind distinguishes ordinary properties from accessors in object
// literals.
type PropKind int

// Property kinds.
const (
	PropInit PropKind = iota // key: value
	PropGet                  // get key() { ... }
	PropSet                  // set key(v) { ... }
)

// Property is a single entry of an object literal.
type Property struct {
	Kind  PropKind
	Key   string
	Value Expr // for PropGet/PropSet this is a *Func
}

// Object is an object literal.
type Object struct {
	P     Pos
	Props []Property
}

// Func is a function expression, function declaration body, or arrow
// function. Arrow functions have lexical `this` and no `arguments` object.
type Func struct {
	P      Pos
	Name   string // "" for anonymous
	Params []string
	Body   []Stmt
	Arrow  bool

	// Intrinsic marks a prelude function, which hoisting puts in the realm's
	// table under that index instead of binding its name (intrinsic.go). Only
	// MarkIntrinsics sets it: a guest's `function $add(){}` is its own.
	Intrinsic Intrinsic

	// Self is the name the body binds to the function itself: a function
	// expression's own name. A declaration binds none — its name is the
	// enclosing scope's binding, wherever a pass moves it — until the
	// instrumentation gives it instrument.SelfVar to record its frames by.
	Self string

	// Scope is the frame layout computed by internal/resolve. Nil means the
	// function was never resolved, and cannot be called.
	Scope *ScopeInfo

	// Code is the engine's compiled form of the function (opaque: ast cannot
	// import the engine), set once, by the first realm to call it. On the
	// node, realms sharing a tree share it and it dies with the tree.
	Code atomic.Value
}

// Unary is a prefix unary operator: ! - + ~ typeof void delete.
type Unary struct {
	P  Pos
	Op string
	X  Expr
}

// Update is ++ or -- in prefix or postfix position.
type Update struct {
	P      Pos
	Op     string // "++" or "--"
	Prefix bool
	X      Expr
}

// Binary is a binary operator, including instanceof and in.
type Binary struct {
	P    Pos
	Op   string
	L, R Expr
}

// Logical is && or || (short-circuiting, so distinct from Binary).
type Logical struct {
	P    Pos
	Op   string // "&&" or "||"
	L, R Expr
}

// Assign is an assignment, possibly compound (+=, -=, ...). Target is an
// *Ident or a *Member.
type Assign struct {
	P      Pos
	Op     string // "=", "+=", ...
	Target Expr
	Value  Expr
}

// Cond is the ternary operator test ? cons : alt.
type Cond struct {
	P    Pos
	Test Expr
	Cons Expr
	Alt  Expr
}

// Call is a function application. Label is assigned by the instrumentation
// pass (§3.1 step 3): every non-tail application receives a unique positive
// label within its enclosing function; 0 means unlabeled.
type Call struct {
	P      Pos
	Callee Expr
	Args   []Expr
	Label  int
}

// New is a constructor invocation `new Callee(args)`.
type New struct {
	P      Pos
	Callee Expr
	Args   []Expr
	Label  int
}

// Member is a property access, `X.Name` or `X[Index]`.
type Member struct {
	P        Pos
	X        Expr
	Name     string // when !Computed
	Index    Expr   // when Computed
	Computed bool
	// Frame marks the callee of a call the instrumentation emits to push
	// (push), pop (pop) or re-enter (apply) a continuation frame, which the
	// bytecode compiler lowers with a frame instruction. Nothing else sets
	// it; the printer does not show it.
	Frame bool

	// Site is the inline-cache site ID assigned by internal/resolve to
	// non-computed accesses, indexing the interpreter's property caches;
	// 0 means no cache.
	Site uint32
}

// Seq is the comma operator.
type Seq struct {
	P     Pos
	Exprs []Expr
}

func (n *Ident) Position() Pos     { return n.P }
func (n *Number) Position() Pos    { return n.P }
func (n *Str) Position() Pos       { return n.P }
func (n *Bool) Position() Pos      { return n.P }
func (n *Null) Position() Pos      { return n.P }
func (n *This) Position() Pos      { return n.P }
func (n *NewTarget) Position() Pos { return n.P }
func (n *Array) Position() Pos     { return n.P }
func (n *Object) Position() Pos    { return n.P }
func (n *Func) Position() Pos      { return n.P }
func (n *Unary) Position() Pos     { return n.P }
func (n *Update) Position() Pos    { return n.P }
func (n *Binary) Position() Pos    { return n.P }
func (n *Logical) Position() Pos   { return n.P }
func (n *Assign) Position() Pos    { return n.P }
func (n *Cond) Position() Pos      { return n.P }
func (n *Call) Position() Pos      { return n.P }
func (n *New) Position() Pos       { return n.P }
func (n *Member) Position() Pos    { return n.P }
func (n *Seq) Position() Pos       { return n.P }

func (*Ident) exprNode()     {}
func (*Number) exprNode()    {}
func (*Str) exprNode()       {}
func (*Bool) exprNode()      {}
func (*Null) exprNode()      {}
func (*This) exprNode()      {}
func (*NewTarget) exprNode() {}
func (*Array) exprNode()     {}
func (*Object) exprNode()    {}
func (*Func) exprNode()      {}
func (*Unary) exprNode()     {}
func (*Update) exprNode()    {}
func (*Binary) exprNode()    {}
func (*Logical) exprNode()   {}
func (*Assign) exprNode()    {}
func (*Cond) exprNode()      {}
func (*Call) exprNode()      {}
func (*New) exprNode()       {}
func (*Member) exprNode()    {}
func (*Seq) exprNode()       {}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Declarator is a single name in a var statement. Ref is the resolved
// coordinate of the hoisted binding the initializer assigns to.
type Declarator struct {
	Name string
	Init Expr // may be nil
	Ref  Ref
}

// VarDecl is a `var` declaration list. The parser normalizes let/const to
// var after renaming, so there is a single declaration kind.
type VarDecl struct {
	P     Pos
	Decls []Declarator
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	P Pos
	X Expr
}

// Block is a braced statement list.
type Block struct {
	P    Pos
	Body []Stmt
}

// If is a conditional statement. Alt may be nil.
type If struct {
	P    Pos
	Test Expr
	Cons Stmt
	Alt  Stmt
	// Site marks a checked-strategy call site the instrumentation built
	// (instrument.site), and Restore a function prologue's restore block
	// (instrument.prologue): the bytecode compiler lowers both with fused
	// instructions. Nothing else sets them; the printer does not show them.
	Site, Restore bool
}

// While is a while loop.
type While struct {
	P    Pos
	Test Expr
	Body Stmt
}

// DoWhile is a do/while loop.
type DoWhile struct {
	P    Pos
	Body Stmt
	Test Expr
}

// For is a C-style for loop. Init is either a *VarDecl, an *ExprStmt, or
// nil; Test and Update may be nil.
type For struct {
	P      Pos
	Init   Stmt
	Test   Expr
	Update Expr
	Body   Stmt
}

// ForIn is a for-in loop over enumerable property names. Ref is the
// resolved coordinate of the loop variable's binding.
type ForIn struct {
	P    Pos
	Decl bool // true for `for (var k in o)`
	Name string
	Obj  Expr
	Body Stmt
	Ref  Ref
}

// Return is a return statement; Arg may be nil.
type Return struct {
	P   Pos
	Arg Expr
}

// Break exits a loop, switch, or labeled statement.
type Break struct {
	P     Pos
	Label string // "" for unlabeled
}

// Continue continues a loop.
type Continue struct {
	P     Pos
	Label string
}

// Labeled is `Label: Body`.
type Labeled struct {
	P     Pos
	Label string
	Body  Stmt
}

// Case is a switch case; Test == nil marks the default clause.
type Case struct {
	Test Expr
	Body []Stmt
}

// Switch is a switch statement with fall-through semantics.
type Switch struct {
	P     Pos
	Disc  Expr
	Cases []Case
}

// Throw raises an exception.
type Throw struct {
	P   Pos
	Arg Expr
}

// Try is try/catch/finally. Catch may be nil (then Finally is non-nil) and
// vice versa.
type Try struct {
	P          Pos
	Block      *Block
	CatchParam string
	Catch      *Block
	Finally    *Block

	// CatchScope is the one-slot frame layout for the catch clause,
	// computed by internal/resolve.
	CatchScope *ScopeInfo
}

// FuncDecl is a hoisted function declaration.
type FuncDecl struct {
	P  Pos
	Fn *Func
}

// Empty is a lone semicolon.
type Empty struct {
	P Pos
}

func (n *VarDecl) Position() Pos  { return n.P }
func (n *ExprStmt) Position() Pos { return n.P }
func (n *Block) Position() Pos    { return n.P }
func (n *If) Position() Pos       { return n.P }
func (n *While) Position() Pos    { return n.P }
func (n *DoWhile) Position() Pos  { return n.P }
func (n *For) Position() Pos      { return n.P }
func (n *ForIn) Position() Pos    { return n.P }
func (n *Return) Position() Pos   { return n.P }
func (n *Break) Position() Pos    { return n.P }
func (n *Continue) Position() Pos { return n.P }
func (n *Labeled) Position() Pos  { return n.P }
func (n *Switch) Position() Pos   { return n.P }
func (n *Throw) Position() Pos    { return n.P }
func (n *Try) Position() Pos      { return n.P }
func (n *FuncDecl) Position() Pos { return n.P }
func (n *Empty) Position() Pos    { return n.P }

func (*VarDecl) stmtNode()  {}
func (*ExprStmt) stmtNode() {}
func (*Block) stmtNode()    {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*For) stmtNode()      {}
func (*ForIn) stmtNode()    {}
func (*Return) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Labeled) stmtNode()  {}
func (*Switch) stmtNode()   {}
func (*Throw) stmtNode()    {}
func (*Try) stmtNode()      {}
func (*FuncDecl) stmtNode() {}
func (*Empty) stmtNode()    {}
