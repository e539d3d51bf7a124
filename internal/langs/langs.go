// Package langs models the ten source-language compilers of the paper's
// evaluation (Figure 5). Each Profile pairs the sub-language options that
// compiler's output inhabits (its Impl/Args/Getters/Eval row) with a suite
// of benchmark programs written in the style that compiler actually emits —
// PyJS's dictionary-backed objects and optional arguments, ScalaJS's boxed
// values and translated standard library, Emscripten's flat
// typed-array-style code, and so on.
//
// Every benchmark prints a deterministic checksum, so the harness can
// verify that instrumented and raw runs agree before trusting a timing.
package langs

import "repro/internal/core"

// Benchmark is one program of a language's suite.
type Benchmark struct {
	Name   string
	Source string
}

// Profile describes one compiler: its name, the sub-language it targets,
// and its benchmarks.
type Profile struct {
	Name     string // source language ("python", "scala", ...)
	Compiler string // the compiler of Figure 5 ("PyJS", "ScalaJS", ...)

	// Sub-language columns of Figure 5.
	Impl    string // "none", "plus", "full"
	Args    string // "none", "varargs", "mixed", "full"
	Getters bool
	Eval    bool

	Benchmarks []Benchmark
}

// Opts returns the Stopify configuration exploiting this profile's
// sub-language, with the given continuation/constructor/timer choices
// layered on top.
func (p *Profile) Opts(base core.Opts) core.Opts {
	base.Implicits = p.Impl
	base.Args = p.Args
	base.Getters = p.Getters
	base.Eval = p.Eval
	return base
}

// All returns the nine §6.1 language profiles plus Pyret (§6.4), in the
// order the paper lists them.
func All() []*Profile {
	return []*Profile{
		Python(),
		Scala(),
		Scheme(),
		Clojure(),
		Dart(),
		Cpp(),
		OCaml(),
		Java(),
		JavaScript(),
		Pyret(),
	}
}

// ByName finds a profile.
func ByName(name string) *Profile {
	for _, p := range All() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// TotalBenchmarks counts benchmarks across all profiles (147 in the paper;
// we aim for the same order of magnitude).
func TotalBenchmarks() int {
	n := 0
	for _, p := range All() {
		n += len(p.Benchmarks)
	}
	return n
}
