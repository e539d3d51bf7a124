package baselines

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/langs"
)

func cfg() core.RunConfig {
	return core.RunConfig{Clock: eventloop.NewVirtualClock(), Seed: 1}
}

// strawmanCorpus is the numeric subset both strawmen support.
var strawmanCorpus = []string{
	`function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
	 console.log(fib(14));`,
	`function tak(x, y, z) {
	   if (y >= x) { return z; }
	   return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y));
	 }
	 console.log(tak(10, 5, 0));`,
	`function step(acc, i) { return acc + i * i; }
	 var acc = 0;
	 for (var i = 0; i < 200; i++) { acc = step(acc, i); }
	 console.log(acc);`,
	`function even(n) { if (n === 0) { return true; } return odd(n - 1); }
	 function odd(n) { if (n === 0) { return false; } return even(n - 1); }
	 console.log(even(100), odd(100));`,
	`function apply1(f, x) { return f(x); }
	 var dbl = function (v) { return v * 2; };
	 console.log(apply1(dbl, 21));`,
	`function abs(x) { if (x < 0) { return -x; } return x; }
	 var t = 0;
	 for (var i = -50; i < 50; i++) { t += abs(i); }
	 console.log(t);`,
	`console.log(Math.floor(3.9), Math.max(1, 2, 3));`,
	`function step(acc, i) { return acc + i; }
	 var t = 0;
	 for (var i = 0; i < 4; i++) {
	   t = step(t, i);
	   if (i > 0) { var j = 0; while (j < 5) { j++; if (j === 2) { break; } } t += j; }
	 }
	 console.log(t);`,
}

func TestCPSPreservesSemantics(t *testing.T) {
	for _, src := range strawmanCorpus {
		want, err := core.RunRaw(src, cfg())
		if err != nil {
			t.Fatalf("raw: %v", err)
		}
		cpsSrc, err := CompileCPS(src)
		if err != nil {
			t.Fatalf("CompileCPS(%q): %v", src, err)
		}
		got, err := core.RunRaw(cpsSrc, cfg())
		if err != nil {
			t.Fatalf("cps run failed: %v\n--- transformed ---\n%s", err, cpsSrc)
		}
		if got != want {
			t.Errorf("cps changed semantics:\n%s\nraw: %q\ncps: %q", src, want, got)
		}
	}
}

func TestCPSKeepsStackFlat(t *testing.T) {
	// Deep non-tail-looking recursion via the trampoline must not overflow
	// a shallow native stack: the continuation chain lives on the heap.
	src := `
function count(n) { if (n === 0) { return 0; } return 1 + count(n - 1); }
console.log(count(200));`
	cpsSrc, err := CompileCPS(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunRaw(cpsSrc, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got != "200\n" {
		t.Errorf("got %q", got)
	}
}

func TestCPSRejectsUnsupported(t *testing.T) {
	for _, src := range []string{
		`try { f(); } catch (e) { }`,
		`function f() { return new Object(); } f();`,
	} {
		if _, err := CompileCPS(src); err == nil {
			t.Errorf("CompileCPS(%q) should be rejected by the strawman", src)
		}
	}
}

func TestGenPreservesSemantics(t *testing.T) {
	for _, src := range strawmanCorpus {
		want, err := core.RunRaw(src, cfg())
		if err != nil {
			t.Fatalf("raw: %v", err)
		}
		genSrc, err := CompileGen(src)
		if err != nil {
			t.Fatalf("CompileGen: %v", err)
		}
		got, err := core.RunRaw(genSrc, cfg())
		if err != nil {
			t.Fatalf("gen run failed: %v\n--- transformed ---\n%s", err, genSrc)
		}
		if got != want {
			t.Errorf("gen changed semantics:\n%s\nraw: %q\ngen: %q", src, want, got)
		}
	}
}

func TestSkulptPreservesSemantics(t *testing.T) {
	srcs := append(strawmanCorpus,
		`var o = { a: 1 }; o.a += 2; console.log(o.a);`,
		`try { throw new Error("x"); } catch (e) { console.log(e.message); }`,
		`var n = 0; for (var k in { a: 1, b: 2 }) { n++; } console.log(n);`,
	)
	for _, src := range srcs {
		want, err := core.RunRaw(src, cfg())
		if err != nil {
			t.Fatalf("raw: %v", err)
		}
		skSrc, err := CompileSkulpt(src)
		if err != nil {
			t.Fatalf("CompileSkulpt: %v", err)
		}
		got, err := core.RunRaw(skSrc, cfg())
		if err != nil {
			t.Fatalf("skulpt run failed: %v\n%s", err, skSrc)
		}
		if got != want {
			t.Errorf("skulpt changed semantics:\n%s\nraw: %q\nsk: %q", src, want, got)
		}
	}
}

func TestSkulptAddsDispatch(t *testing.T) {
	out, err := CompileSkulpt(`var x = 1 + 2 * 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "$sk_bin") {
		t.Error("skulpt transform should route arithmetic through $sk_bin")
	}
}

// strawmanOutputSum is the sha-256 of what CompileGen and CompileCPS print for
// every internal/langs program they accept. A refactor of either transform,
// or of a pass they share with the compiler, must leave it alone; a change
// that means to alter their output recomputes it — the failure message
// prints the new value — and says so.
const strawmanOutputSum = "6c4fc857979f852878ece2e9f1cc0b2c766a1dbab503509c5406625bcd336301"

// TestStrawmanOutputPinned is TestCompiledOutputPinned for the two strawmen:
// not one byte of their output moves.
func TestStrawmanOutputPinned(t *testing.T) {
	h := sha256.New()
	accepted := map[string]int{}
	for _, p := range langs.All() {
		for _, b := range p.Benchmarks {
			for _, s := range []struct {
				name    string
				compile func(string) (string, error)
			}{{"gen", CompileGen}, {"cps", CompileCPS}} {
				out, err := s.compile(b.Source)
				if err != nil {
					fmt.Fprintf(h, "%s %s/%s rejected\n", s.name, p.Name, b.Name)
					continue
				}
				accepted[s.name]++
				fmt.Fprintf(h, "%s %s/%s %d\n", s.name, p.Name, b.Name, len(out))
				h.Write([]byte(out))
			}
		}
	}
	if accepted["gen"] == 0 || accepted["cps"] == 0 {
		t.Fatalf("the pin covers no output: accepted %v", accepted)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != strawmanOutputSum {
		t.Fatalf("strawman output changed: sha-256 over %v accepted compiles is %s, pinned %s", accepted, got, strawmanOutputSum)
	}
}
