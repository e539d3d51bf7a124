package core_test

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// FuzzSnapshotRoundTrip is the codec's fuzz target: any parseable input is
// paused every so many statements and, at every pause, serialized, restored
// into a fresh realm and resumed there — and any difference from resuming
// the original run in place is a failure. A pinned guest (live natives the
// codec refuses to carry) carries on in place, so the comparison also proves
// the failed snapshot attempt left the run unharmed. The seed corpus reuses
// the differential fuzz generator plus the adversarial codec programs
// (cycles, accessors, escaped closures, NaN/−0 keys).
func FuzzSnapshotRoundTrip(f *testing.F) {
	seedFromCorpus(f, false, "edge/", "argsedge/", "implicit/", "adversarial/", "pin/")
	// Targeted seeds for the wire-v2 node kinds: bound chains over varied
	// targets, Date arithmetic, and timer-handle churn.
	f.Add(`function f(a,b,c){return a+b*c;} var g=f.bind({x:1},2); var h=g.bind(null,3);
		var o={m:f}; var bm=o.m.bind(o,5);
		for(var i=0;i<9000;i++){} console.log(h(4), bm(6,7), h.length, new h(10).constructor===undefined);`)
	f.Add(`var a=new Date(0), b=new Date(1e12), c=new Date(NaN);
		for(var i=0;i<9000;i++){} console.log(a.getTime(), b.valueOf(), ""+(c.getTime()!==c.getTime()), typeof Date());`)
	f.Add(`var ids=[]; function cb(){console.log("hit",arguments.length);}
		for(var i=0;i<6;i++){ids.push(setTimeout(cb,5*i,i,"x"));}
		clearTimeout(ids[1]); clearTimeout(ids[3]); clearTimeout(-1); clearTimeout("2.5");
		for(var i=0;i<9000;i++){}`)
	for seed := int64(100); seed < 130; seed++ {
		f.Add(randomProgram(rand.New(rand.NewSource(seed))))
	}
	opts := core.Defaults()
	opts.Getters = true
	f.Fuzz(func(t *testing.T, src string) {
		p := fuzzInput(t, src)
		if p == nil {
			return
		}
		if _, err := core.Compile(src, opts); err != nil {
			t.Skip("does not compile")
		}
		// Vary the quantum with the input so the fuzzer explores many
		// program positions, not one.
		h := fnv.New64a()
		h.Write([]byte(src))
		quantum := 50 + h.Sum64()%3000
		under := profile{"fuzz", opts}
		for _, engine := range bothEngines {
			inPlace := drive(p, cell{under, engine, "checked", quantum, "resume"})
			hopped := drive(p, cell{under, engine, "checked", quantum, "hop"})
			if inPlace.text != hopped.text {
				t.Fatalf("%s: snapshot round-trip diverged at quantum %d:\n  in-place: %q\n  restored: %q", engine, quantum, inPlace.text, hopped.text)
			}
		}
	})
}
