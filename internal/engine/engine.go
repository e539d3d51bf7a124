// Package engine models the performance-relevant differences between the
// browsers in the paper's evaluation (Figure 9/11). A Profile charges
// deterministic "work units" for the operations whose relative costs drive
// Stopify's browser-specific optimization choices: exception-handler entry
// (checked-return vs. exceptional continuations), `new` vs. Object.create
// (wrapped vs. desugared constructors), property access, calls, and
// allocation — plus a global speed factor and the engine's native stack
// limit.
//
// The absolute numbers are synthetic; what matters (and what Figure 2b and
// Figure 11 test) is the asymmetry: Edge-like engines make try/catch and
// Object.create expensive relative to plain checks and `new`, while
// Chrome-like engines make them cheap.
package engine

// Profile describes one browser-like engine.
type Profile struct {
	Name string

	// Speed multiplies every charge; 1 is the fastest engine. It models a
	// slower device (the $200 ChromeBook) rather than a different JIT.
	Speed int

	// TryCost is charged when a try block is entered. Exceptional
	// continuations wrap every application in a handler, so this is the
	// dominant term for that strategy.
	TryCost int

	// BranchCost is charged when an if statement's test is evaluated. JIT
	// engines differ sharply here: Chrome-like engines enter try regions
	// for free but pay for the checked strategy's per-call branches, while
	// Edge-like engines have cheap branches and expensive handlers — the
	// asymmetry behind Figure 11.
	BranchCost int

	// ThrowCost is charged when an exception is thrown.
	ThrowCost int

	// CallCost is charged for every function application.
	CallCost int

	// NewCost is charged for a `new` expression over and above CallCost.
	NewCost int

	// ObjectCreateCost is charged for Object.create and object literal
	// allocation. The desugared constructor strategy replaces `new` with
	// Object.create, so NewCost vs. ObjectCreateCost decides Figure 2b.
	ObjectCreateCost int

	// PropCost is charged for member reads and writes.
	PropCost int

	// MaxStack is the engine's native call-stack limit in JavaScript
	// frames; exceeding it throws a RangeError, as browsers do. Firefox
	// and mobile browsers are notoriously shallow (§5.2).
	MaxStack int
}

// Profiles returns the five evaluation platforms of Figure 9. The map keys
// are the names used throughout the benchmark harness.
func Profiles() map[string]*Profile {
	return map[string]*Profile{
		"chrome":     Chrome(),
		"edge":       Edge(),
		"firefox":    Firefox(),
		"safari":     Safari(),
		"chromebook": ChromeBook(),
	}
}

// Chrome models a fast engine with cheap exception handlers and cheap
// Object.create: exceptional continuations and desugared constructors win
// (Figure 11).
func Chrome() *Profile {
	return &Profile{
		Name: "chrome", Speed: 1,
		TryCost: 1, BranchCost: 22, ThrowCost: 8, CallCost: 2, NewCost: 44,
		ObjectCreateCost: 20, PropCost: 1, MaxStack: 4000,
	}
}

// Edge models an engine with expensive exception handlers and expensive
// Object.create: checked-return continuations and dynamic (wrapped)
// constructors win (Figure 11).
func Edge() *Profile {
	return &Profile{
		Name: "edge", Speed: 2,
		TryCost: 28, BranchCost: 1, ThrowCost: 40, CallCost: 3, NewCost: 16,
		ObjectCreateCost: 70, PropCost: 2, MaxStack: 3000,
	}
}

// Firefox is slower than Chrome overall, with cheap handlers and a shallow
// stack (the paper singles out Firefox's stack depth, §5.2).
func Firefox() *Profile {
	return &Profile{
		Name: "firefox", Speed: 2,
		TryCost: 2, BranchCost: 18, ThrowCost: 12, CallCost: 2, NewCost: 40,
		ObjectCreateCost: 24, PropCost: 1, MaxStack: 1200,
	}
}

// Safari is the fastest platform in Figure 10, with cheap handlers.
func Safari() *Profile {
	return &Profile{
		Name: "safari", Speed: 1,
		TryCost: 1, BranchCost: 20, ThrowCost: 6, CallCost: 1, NewCost: 40,
		ObjectCreateCost: 16, PropCost: 1, MaxStack: 1500,
	}
}

// ChromeBook is Chrome on a slow device: identical cost structure, uniformly
// slower.
func ChromeBook() *Profile {
	p := Chrome()
	p.Name = "chromebook"
	p.Speed = 4
	p.MaxStack = 4000
	return p
}

// Uniform returns a neutral profile for unit tests: every operation costs
// the same small amount and the stack is deep.
func Uniform() *Profile {
	return &Profile{
		Name: "uniform", Speed: 1,
		TryCost: 1, BranchCost: 1, ThrowCost: 1, CallCost: 1, NewCost: 1,
		ObjectCreateCost: 1, PropCost: 1, MaxStack: 100000,
	}
}
