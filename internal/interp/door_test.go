package interp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oneDoor names every function of internal/interp and internal/rt that may
// call guest code with Call. A native that calls guest code while guest
// frames lie below it goes through callBack, which runs the call in an atomic
// section: a continuation cannot unwind through the native's Go frame.
var oneDoor = map[string]string{
	"interp/interp.go:Interp.callBack": "the door itself",

	// Transparent: the callee takes the native's place on the stack.
	"interp/builtins.go:Interp.setupFunctionProto/call":  "Function.prototype.call",
	"interp/builtins.go:Interp.setupFunctionProto/apply": "Function.prototype.apply",

	// Entries that start a stack and stay preemptible.
	"interp/builtins.go:Interp.PostTimer":           "a timer with no runtime to run it",
	"rt/rt.go:R.Run":                                "$main",
	"rt/rt.go:R.runTimer":                           "a timer under the driver",
	"rt/rt.go:R.reenterSegment":                     "a segment's outermost frame",
	"rt/natives.go:R.installNatives/instrument.CFn": "$C's body, in an empty continuation",

	// The engines' own call paths.
	"interp/dispatch.go:Interp.runChunk": "the bytecode call ops",
	"interp/expr.go:Interp.evalCall":     "the tree-walker's call",
	"interp/expr.go:Interp.Construct":    "new",
	"interp/expr.go:Interp.Call":         "a bound function's target",
	"interp/frames.go:Interp.reenter":    "a restored frame",
}

// TestOneDoor scans the non-test files of internal/interp and internal/rt and
// fails on a Call from any function oneDoor does not name: a native that
// calls guest code with Call instead of callBack lets a yield inside the
// callee capture through the native's frame, which drops the rest of the
// program. A function literal is named after its enclosing declaration and
// the name the literal is installed under (method("sort", ...)).
func TestOneDoor(t *testing.T) {
	seen := map[string]bool{}
	for _, dir := range []string{".", "../rt"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, site := range callSites(t, path) {
				seen[site.name] = true
				if _, ok := oneDoor[site.name]; !ok {
					t.Errorf("%s: %s calls guest code with Call; a native goes through callBack", site.pos, site.name)
				}
			}
		}
	}
	var stale []string
	for name := range oneDoor {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("oneDoor names %s, which makes no Call", name)
	}
}

type callSite struct {
	pos  token.Position
	name string
}

// callSites lists the x.Call(...) expressions of one file, each named
// "<package>/<file>:<function>".
func callSites(t *testing.T, path string) []callSite {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Base(filepath.Dir(abs)) + "/" + filepath.Base(path)
	var sites []callSite
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			typ := fd.Recv.List[0].Type
			if st, ok := typ.(*ast.StarExpr); ok {
				typ = st.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		// The stack of calls that enclose the current node: a function
		// literal passed to a call whose first argument names it (a string
		// literal or a selector) takes that name.
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Call" {
				return true
			}
			sites = append(sites, callSite{fset.Position(call.Pos()), file + ":" + name + litName(stack)})
			return true
		})
	}
	return sites
}

// litName is the name of the outermost named function literal on stack, ""
// when there is none.
func litName(stack []ast.Node) string {
	for i := 1; i < len(stack); i++ {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || call.Args[0] == ast.Expr(lit) {
			continue
		}
		switch a := call.Args[0].(type) {
		case *ast.BasicLit:
			if s, err := strconv.Unquote(a.Value); err == nil {
				return "/" + s
			}
		case *ast.SelectorExpr:
			if x, ok := a.X.(*ast.Ident); ok {
				return "/" + x.Name + "." + a.Sel.Name
			}
		}
	}
	return ""
}
