package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// agreedOutput runs a kernel four ways — raw, stopified on the default
// engine, stopified on the tree-walker and on the bytecode engine — and
// returns the output only if all four agree: the reference is never the
// word of one engine under test alone.
func agreedOutput(k kernelRef) (string, error) {
	src, opts, err := kernelSource(k)
	if err != nil {
		return "", err
	}
	want, err := core.RunRaw(src, core.RunConfig{})
	if err != nil {
		return "", fmt.Errorf("%s raw: %w", k, err)
	}
	c, err := core.Compile(src, opts)
	if err != nil {
		return "", fmt.Errorf("%s: %w", k, err)
	}
	for _, backend := range []string{"", core.BackendTree, core.BackendBytecode} {
		var buf bytes.Buffer
		run, err := c.NewRun(core.RunConfig{Out: &buf, Backend: backend})
		if err == nil {
			err = run.RunToCompletion()
		}
		if err != nil {
			return "", fmt.Errorf("%s stopified (backend %q): %w", k, backend, err)
		}
		if buf.String() != want {
			return "", fmt.Errorf("%s: stopified output (backend %q) differs from raw:\n  raw  %q\n  got  %q", k, backend, want, buf.String())
		}
	}
	return want, nil
}

// updateGolden rewrites testdata/golden for every catalogue kernel, and
// refuses to write anything unless every kernel's four outputs agree. It
// must run from the module root, where `go run ./benchmark` runs.
func updateGolden() error {
	dir := filepath.Join("benchmark", goldenDir)
	outputs := make(map[kernelRef]string)
	for _, k := range kernelCatalogue {
		out, err := agreedOutput(k)
		if err != nil {
			return err
		}
		outputs[k] = out
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for k, out := range outputs {
		if err := os.WriteFile(filepath.Join("benchmark", goldenPath(k)), []byte(out), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d golden outputs to %s\n", len(outputs), dir)
	return nil
}
