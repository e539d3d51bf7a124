package core

import (
	"fmt"
	"strings"
	"testing"
)

// supOpts are the options a supervisor compiles under by default.
func supOpts() Opts {
	o := Defaults()
	o.YieldIntervalMs = 0
	return o
}

func TestMemoKeysOnOptsAndSource(t *testing.T) {
	var m compileMemo
	const src = `var a = 1 + 2; console.log(a);`
	base, err := m.compile(src, supOpts())
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := m.compile(src, supOpts()); again != base {
		t.Error("the same source under the same options compiled twice")
	}
	// Zero-valued options normalize to the defaults: one key, not two.
	o := supOpts()
	o.Cont, o.Ctor = "", ""
	if again, _ := m.compile(src, o); again != base {
		t.Error("options differing only in spelled-out defaults got their own entry")
	}
	for _, change := range []func(*Opts){
		func(o *Opts) { o.Implicits = "full" },
		func(o *Opts) { o.Cont = "eager" },
		func(o *Opts) { o.Debug = true },
		func(o *Opts) { o.YieldIntervalMs = 5 },
	} {
		o := supOpts()
		change(&o)
		c, err := m.compile(src, o)
		if err != nil {
			t.Fatal(err)
		}
		// The key is the options as declared: src, which uses no
		// conversion, compiles under implicits=none either way.
		if c == base || c.declared != o {
			t.Errorf("options %+v were served the program declared under %+v", o, c.declared)
		}
	}
	if c, _ := m.compile(src+" ", supOpts()); c == base {
		t.Error("a different source text was served another text's program")
	}
	if got := m.lru.Len(); got != 6 {
		t.Errorf("memo holds %d entries, want 6 (base, four option variants, one other text)", got)
	}
	if m.hits != 2 || m.misses != 6 {
		t.Errorf("hits=%d misses=%d, want 2 and 6", m.hits, m.misses)
	}
}

func TestMemoDoesNotCacheErrors(t *testing.T) {
	var m compileMemo
	for i := 0; i < 2; i++ {
		if _, err := m.compile(`var = ;`, supOpts()); err == nil {
			t.Fatal("a syntax error compiled")
		}
	}
	bad := supOpts()
	bad.Cont = "sideways"
	if _, err := m.compile(`1;`, bad); err == nil {
		t.Fatal("unknown options compiled")
	}
	if m.lru.Len() != 0 || len(m.entries) != 0 || m.bytes != 0 {
		t.Errorf("failed compiles left %d entries, %d bytes", m.lru.Len(), m.bytes)
	}
	if m.misses != 2 {
		t.Errorf("misses=%d, want 2: each attempt at the bad source compiles afresh", m.misses)
	}
}

// TestMemoKeepsRecurringSetAtAdmitMix replays the `admit` workload's shape
// — per round, 150 requests over 16 recurring texts interleaved with 150
// texts never seen again — and requires every recurring request after the
// first round's sixteen to hit: the never-repeated half must not push the
// recurring half out.
func TestMemoKeepsRecurringSetAtAdmitMix(t *testing.T) {
	var m compileMemo
	unique := 0
	const rounds, perRound, recurring = 4, 150, 16
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if _, err := m.compile(fmt.Sprintf(`console.log("hot", %d);`, i%recurring), supOpts()); err != nil {
				t.Fatal(err)
			}
			unique++
			if _, err := m.compile(fmt.Sprintf(`console.log("once", %d);`, unique), supOpts()); err != nil {
				t.Fatal(err)
			}
			if m.lru.Len() > memoMaxEntries || len(m.entries) != m.lru.Len() {
				t.Fatalf("memo holds %d entries (index %d), bound %d", m.lru.Len(), len(m.entries), memoMaxEntries)
			}
		}
	}
	if want := uint64(rounds*perRound - recurring); m.hits != want {
		t.Errorf("hits=%d, want %d: a recurring text was evicted", m.hits, want)
	}
	if want := uint64(rounds*perRound + recurring - memoMaxEntries); m.evictions != want {
		t.Errorf("evictions=%d, want %d", m.evictions, want)
	}
}

func TestMemoBoundsRetainedSourceBytes(t *testing.T) {
	var m compileMemo
	// A big string literal makes a source large without making it slow.
	big := func(tag, size int) string {
		return fmt.Sprintf(`var s%d = "%s"; console.log(s%d.length);`, tag, strings.Repeat("x", size), tag)
	}
	small, err := m.compile(`console.log("small");`, supOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		// Keep the small entry recent so the byte bound evicts big ones.
		if c, _ := m.compile(small.SourceText, supOpts()); c != small {
			t.Fatal("the recently used small entry was evicted ahead of older big ones")
		}
		if _, err := m.compile(big(i, 1<<20), supOpts()); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for e := m.lru.Front(); e != nil; e = e.Next() {
			sum += e.Value.(*Compiled).SourceBytes
		}
		if sum != m.bytes || m.bytes > memoMaxSourceBytes {
			t.Fatalf("after %d big sources: %d bytes accounted, %d retained, bound %d", i+1, m.bytes, sum, memoMaxSourceBytes)
		}
	}
	if m.evictions == 0 {
		t.Fatal("12 MiB of sources fit an 8 MiB bound without an eviction")
	}
	// One text over the bound on its own compiles, is not kept, and costs
	// the memo nothing it held.
	held, evictions := m.lru.Len(), m.evictions
	c, err := m.compile(big(99, memoMaxSourceBytes), supOpts())
	if err != nil || c == nil {
		t.Fatalf("oversize source: %v", err)
	}
	if m.lru.Len() != held || m.evictions != evictions {
		t.Errorf("oversize source changed the memo: %d→%d entries, %d→%d evictions", held, m.lru.Len(), evictions, m.evictions)
	}
}

// TestPreludeCompilesOncePerKey: options that do not reach the prelude
// share one, and the counter moves only for a combination not seen before.
func TestPreludeCompilesOncePerKey(t *testing.T) {
	o := supOpts()
	o.Implicits, o.Getters, o.Args = "plus", true, "mixed" // a combination of this test's own
	if _, err := Compile(`1;`, o); err != nil {
		t.Fatal(err)
	}
	before := ReadCompileStats().PreludeCompiles
	for i, change := range []func(*Opts){
		func(o *Opts) { o.Debug = true },
		func(o *Opts) { o.YieldIntervalMs = 7 },
		func(o *Opts) { o.Timer = "exact" },
		func(o *Opts) { o.Eval = true },
	} {
		v := o
		change(&v)
		a, err := Compile(fmt.Sprintf(`console.log(%d);`, i), v)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Compile(`2;`, o)
		if a.Prog.Body[0] != b.Prog.Body[0] {
			t.Errorf("variant %d: programs do not share the prelude's statements", i)
		}
	}
	if got := ReadCompileStats().PreludeCompiles; got != before {
		t.Errorf("prelude compiled %d more times for options that do not affect it", got-before)
	}
}
