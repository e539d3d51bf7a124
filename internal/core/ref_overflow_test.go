package core_test

import (
	"fmt"
	"strings"
	"testing"
)

// TestRefOverflowFindsSlotsByName pins the one by-name path a slot frame has
// left. ast.MakeRef packs a slot into sixteen bits, so in a function with
// 70 000 locals the references to the last few thousand stay Ref zero: the
// walker goes through Env.Lookup/Set, the bytecode compiler emits
// getdyn/setdyn, and both find the slot through ScopeInfo.Index. The closure
// reads one local the resolver could place and two it could not, one hop out;
// under Stopify it parks with the big frame pending, so a hop carries the
// frame through the codec and the restore prologue reassigns every local.
func TestRefOverflowFindsSlotsByName(t *testing.T) {
	const n = 70_000
	var src strings.Builder
	src.WriteString("function id(x) { return x; }\nfunction big() {\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&src, "var a%d = %d;\n", i, i)
	}
	fmt.Fprintf(&src, "function inner() { var one = id(a1); return one + a%d + a%d; }\n", n-1, n)
	src.WriteString("var r = inner();\nreturn r;\n}\nconsole.log(big());\n")
	p := inline("ref-overflow", src.String(), fmt.Sprint(1+n-1+n, "\n"), base())

	profiles := p.profiles()
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
}
