package core_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/resolve"
)

// TestFrameLimit pins the one limit a frame has: a reference addresses slots
// 0 to ast.MaxSlot, so a function whose frame holds MaxSlot+1 slots runs, and
// one a slot larger does not compile — raw or stopified, with the same
// SyntaxError. The closure reads one
// local near the start of the big frame and two at its end, one hop out;
// under Stopify it parks with the big frame pending, so a hop carries the
// frame through the codec and the restore prologue reassigns every local.
func TestFrameLimit(t *testing.T) {
	// Raw, big's frame is this, new.target, arguments, its n locals, r and
	// inner: n+5 slots. Stopified, it holds four more.
	const fits = ast.MaxSlot + 1 - 9
	ok := bigFrame(fits)
	p := inline("frame-limit", ok, fmt.Sprint(1+fits-1+fits, "\n"), base())
	profiles := p.profiles()
	if raw, stopified := bigSlots(t, ok, nil), bigSlots(t, ok, &profiles[0].opts); stopified != ast.MaxSlot+1 || raw != stopified-4 {
		t.Fatalf("big has %d slots raw and %d stopified, want %d stopified and 4 fewer raw", raw, stopified, ast.MaxSlot+1)
	}
	for _, engine := range bothEngines {
		cells := []cell{{engine: engine}}
		for _, prof := range []profile{profiles[0], profiles[len(profiles)-1]} {
			cells = append(cells,
				cell{prof, engine, "checked", 0, "cold"},
				cell{prof, engine, "checked", 2000, "hop"})
		}
		p.hold(t, cells...)
		for _, c := range cells[1:] {
			if o := p.outcome(c); c.quantum > 0 && (o.pauses == 0 || o.blobBytes == 0 || o.pinned != "") {
				t.Errorf("%s: %d pauses, %d blob bytes, pinned %q: the big frame never crossed the codec", c, o.pauses, o.blobBytes, o.pinned)
			}
		}
	}

	tooBig := bigFrame(ast.MaxSlot + 2 - 5)
	if raw := bigSlots(t, tooBig, nil); raw != ast.MaxSlot+2 {
		t.Fatalf("big has %d slots raw, want %d", raw, ast.MaxSlot+2)
	}
	_, rawErr := core.RunRaw(tooBig, core.RunConfig{})
	_, err := core.Compile(tooBig, base())
	want := fmt.Sprintf("SyntaxError: too many variables declared in one function (a frame holds %d)", ast.MaxSlot+1)
	if rawErr == nil || err == nil || rawErr.Error() != want || err.Error() != want {
		t.Errorf("a frame a slot too big: raw %v, stopified %v; want both %q", rawErr, err, want)
	}
	// In an eval fragment, the same refusal is the SyntaxError eval throws.
	evalled := fmt.Sprintf("try { eval(%s); } catch (e) { console.log(e.name); }", strconv.Quote(tooBig))
	opts := base()
	opts.Eval = true
	p = inline("frame-limit-eval", evalled, "SyntaxError\n", opts)
	p.hold(t, cell{engine: core.BackendBytecode}, cell{profile{"declared", opts}, core.BackendBytecode, "checked", 0, "cold"})
}

// bigFrame is a program whose function big declares n locals.
func bigFrame(n int) string {
	var src strings.Builder
	src.WriteString("function id(x) { return x; }\nfunction big() {\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&src, "var a%d = %d;\n", i, i)
	}
	fmt.Fprintf(&src, "function inner() { var one = id(a1); return one + a%d + a%d; }\n", n-1, n)
	src.WriteString("var r = inner();\nreturn r;\n}\nconsole.log(big());\n")
	return src.String()
}

// bigSlots is the size of big's frame raw (opts nil) or compiled under opts.
func bigSlots(t *testing.T, src string, opts *core.Opts) (n int) {
	t.Helper()
	var prog *ast.Program
	if opts == nil {
		var err error
		if prog, err = parser.Parse(src); err != nil {
			t.Fatal(err)
		}
		resolve.Program(prog) // the layout is built, fitting or not
	} else {
		c, err := core.Compile(src, *opts)
		if err != nil {
			t.Fatal(err)
		}
		prog = c.Prog
	}
	ast.Walk(prog, func(node ast.Node) bool {
		if fn, ok := node.(*ast.Func); ok && fn.Name == "big" {
			n = len(fn.Scope.Names)
		}
		return true
	})
	return n
}

// TestTopLevelHasNoFrameLimit: a program's top-level vars are the global
// frame's cells, stopified as raw, so more of them than a frame holds run on
// both sides; $main's frame holds only the compiler's temporaries.
func TestTopLevelHasNoFrameLimit(t *testing.T) {
	const n = ast.MaxSlot + 6
	var src strings.Builder
	for i := range n {
		fmt.Fprintf(&src, "var v%d = %d;\n", i, i)
	}
	fmt.Fprintf(&src, "console.log(v%d);\n", n-1)
	want := fmt.Sprint(n-1, "\n")
	raw, err := core.RunRaw(src.String(), core.RunConfig{})
	if err != nil || raw != want {
		t.Errorf("raw: %q, %v; want %q", raw, err, want)
	}
	stopified, err := core.RunSource(src.String(), base(), core.RunConfig{})
	if err != nil || stopified != want {
		t.Errorf("stopified: %q, %v; want %q", stopified, err, want)
	}
}
