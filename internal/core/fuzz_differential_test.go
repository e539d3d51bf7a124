package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/langs"
	"repro/internal/parser"
)

// FuzzBytecodeVsTreewalker is the differential fuzz target: any parseable
// input runs under both execution engines with a step budget, raw and
// stopified (checked: every call site the bytecode engine fuses), calm and
// preempted at a quantum of 1 to 64 statements taken from the input (every
// frame it captures and restores), and calm under the JavaScript profile's
// options — compiled under what the input uses of them, and compiled as a
// REPL session keeps them all (every `+`, `<` and `o.f` a helper site) —
// and any difference in output, error, completion kind, pauses or statement
// count is a failure, as is a difference in what the two JavaScript compiles
// print when both run to completion; an input the parser refuses must be
// refused alike raw and stopified. The seed
// corpus follows the printer fuzz tests' approach — deterministic
// pseudo-random program generation — plus the hand-written rows of the
// conformance corpus.
func FuzzBytecodeVsTreewalker(f *testing.F) {
	seedFromCorpus(f, true, "edge/", "valedge/", "argsedge/", "implicit/")
	for seed := int64(0); seed < 40; seed++ {
		f.Add(randomProgram(rand.New(rand.NewSource(seed))))
	}
	// A grammar error before a lexical one, and an unterminated comment
	// after a grammar error's token: the parser reports the one it reaches
	// first.
	f.Add("var = 1;\n\"abc")
	f.Add("f(1;\n/* unterminated")
	// Every name the runtime once bound as a global — its mode, frame
	// arrays and natives, the prelude's functions and the natives $get and
	// $set are written in — now an intrinsic no guest binding reaches,
	// declared, assigned, read and called by the guest, at the top level and
	// in a looping function the preempted cell captures and re-enters, beside
	// the `+`, `new` and `o.f` that call the prelude's own.
	for _, name := range ast.IntrinsicNames[1:] {
		f.Add(fmt.Sprintf(`console.log(typeof %[1]s);
var %[1]s = 1;
function f(n) { var %[1]s = n; for (var i = 0; i < 3; i++) { %[1]s = %[1]s + i; } return %[1]s; }
%[1]s = f(%[1]s) + f(2);
console.log(%[1]s, typeof %[1]s);`, name))
		f.Add(fmt.Sprintf(`function g(x) { return x * 2; }
%[1]s = function (x) { return g(x) + 1; };
var s = 0;
for (var i = 0; i < 4; i++) { s = s + %[1]s(i); }
console.log(s, typeof %[1]s);`, name))
		f.Add(fmt.Sprintf(`function P(v) { this.v = v; }
function h(n) { function %[1]s(x) { return x + n; } var t = 0; for (var i = 0; i < 3; i++) { t = t + %[1]s(new P(i).v); } return t; }
console.log(h(1) - h(2), typeof %[1]s);`, name))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p := fuzzInput(t, src)
		if p == nil {
			return
		}
		stopified := cell{profile: profile{"declared", p.needs}, cont: "checked", mode: "cold"}
		preempted := stopified
		h := fnv.New64a()
		h.Write([]byte(src))
		preempted.quantum, preempted.mode = 1+h.Sum64()%64, "resume"
		js := stopified
		js.profile = profile{"javascript", langs.JavaScript().Opts(p.needs)}
		wide := js
		wide.mode = "session"
		var narrow, all string // what js and wide print
		for _, c := range []cell{{}, stopified, preempted, js, wide} {
			c.engine = core.BackendTree
			tree := drive(p, c)
			c.engine = core.BackendBytecode
			bc := drive(p, c)
			if tree != bc {
				t.Fatalf("engine divergence (%s) on:\n%s\n  tree:     %q, %d statements\n  bytecode: %q, %d statements", c, src, tree.text, tree.steps, bc.text, bc.steps)
			}
			switch c.profile.name + "/" + c.mode {
			case "javascript/cold":
				narrow = bc.text
			case "javascript/session":
				all = bc.text
			}
		}
		// Where a run ended early — a step, memory or stack budget, or any
		// error — the two compiles may have got unequally far.
		early := func(text string) bool {
			return strings.HasPrefix(text, "!") || strings.Contains(text, "\n!") || strings.Contains(text, "RangeError")
		}
		if narrow != all && !early(narrow) && !early(all) {
			t.Fatalf("narrowing divergence on:\n%s\n  compiled under what it uses: %q\n  compiled under every option: %q", src, narrow, all)
		}
	})
}

// seedFromCorpus adds the corpus programs of the named groups to f; for a
// differential target, not those a known: line fences on the tree-walker,
// where the engines part by design.
func seedFromCorpus(f *testing.F, differential bool, groups ...string) {
	for _, p := range corpus(f) {
		if differential && slices.ContainsFunc(p.known, func(k known) bool { return slices.Contains(k.tags, core.BackendTree) }) {
			continue
		}
		for _, g := range groups {
			if strings.HasPrefix(p.name, g) {
				f.Add(p.src)
			}
		}
	}
}

// fuzzInput wraps a fuzz input for drive. An input the parser refuses is
// nil, once it is refused alike raw and stopified, with the parser's own
// error and before anything runs.
func fuzzInput(t *testing.T, src string) *program {
	if len(src) > 1<<14 {
		t.Skip("oversized input")
	}
	p := inline("fuzz", src, "", core.Defaults())
	p.fuzzed = true
	if _, perr := parser.Parse(src); perr != nil {
		var out bytes.Buffer
		_, rawErr := core.RunRaw(src, p.config(core.BackendBytecode, &out))
		_, err := core.Compile(src, core.Defaults())
		if out.Len() > 0 || errText(rawErr) != errText(perr) || errText(err) != errText(perr) {
			t.Fatalf("the parser refuses %q with %v, but raw printed %q, %v; stopified %v", src, perr, out.String(), rawErr, err)
		}
		return nil
	}
	return p
}

// randomProgram generates a deterministic pseudo-random program from
// statement and expression templates covering the constructs the bytecode
// compiler lowers.
func randomProgram(rnd *rand.Rand) string {
	var b strings.Builder
	b.WriteString("function main() {\n var s = \"\"; var n = 0; var o = {a:1,b:2}; var arr = [1,2,3];\n")
	depth := 0
	nStmts := 4 + rnd.Intn(8)
	for i := 0; i < nStmts; i++ {
		b.WriteString(randomStmt(rnd, &depth, 0))
	}
	b.WriteString(" return s + \"|\" + n;\n}\nconsole.log(main());\n")
	return b.String()
}

func randomExpr(rnd *rand.Rand) string {
	exprs := []string{
		"n + 1", "n * 2 - 1", "n & 7", "n >>> 1", "s + n", "arr[n % 3]",
		"o.a + o.b", "typeof o.missing", "n < 10", "n === 3", "s.length",
		"arr.length", "\"x\" + (n | 0)", "(n ? 1 : 2)", "o[\"a\"]",
		"-n", "~n", "!n", "n % 5 === 0 && s !== \"\"", "n > 2 || false",
	}
	return exprs[rnd.Intn(len(exprs))]
}

func randomStmt(rnd *rand.Rand, depth *int, level int) string {
	if level > 2 {
		return fmt.Sprintf(" n = %s;\n", randomExpr(rnd))
	}
	switch rnd.Intn(12) {
	case 0:
		return fmt.Sprintf(" s += %s;\n", randomExpr(rnd))
	case 1:
		return fmt.Sprintf(" n = %s;\n", randomExpr(rnd))
	case 2:
		return fmt.Sprintf(" if (%s) {\n%s } else {\n%s }\n",
			randomExpr(rnd), randomStmt(rnd, depth, level+1), randomStmt(rnd, depth, level+1))
	case 3:
		return fmt.Sprintf(" for (var i%d = 0; i%d < %d; i%d++) {\n%s }\n",
			level, level, 2+rnd.Intn(4), level, randomStmt(rnd, depth, level+1))
	case 4:
		return fmt.Sprintf(" try {\n%s } catch (e%d) { s += \"c\"; }\n",
			randomStmt(rnd, depth, level+1), level)
	case 5:
		return fmt.Sprintf(" try {\n%s } finally { s += \"f\"; }\n",
			randomStmt(rnd, depth, level+1))
	case 6:
		return fmt.Sprintf(" switch (n %% 3) { case 0: s += \"0\"; break; case 1: s += \"1\"; default: s += \"d\"; }\n")
	case 7:
		return fmt.Sprintf(" L%d: for (var j%d = 0; j%d < 3; j%d++) { if (j%d === 1) { %s L%d; } s += j%d; }\n",
			level, level, level, level, level,
			[]string{"break", "continue"}[rnd.Intn(2)], level, level)
	case 8:
		return fmt.Sprintf(" for (var k%d in o) { s += k%d; }\n", level, level)
	case 9:
		return fmt.Sprintf(" o.%s = %s;\n", []string{"a", "b", "c"}[rnd.Intn(3)], randomExpr(rnd))
	case 10:
		return fmt.Sprintf(" arr[%d] = %s; delete arr[%d];\n", rnd.Intn(4), randomExpr(rnd), rnd.Intn(4))
	default:
		return fmt.Sprintf(" (function (x) { n = x + n; })(%s);\n", randomExpr(rnd))
	}
}
