// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§2 and §6) against this repository's
// substrates. Each experiment returns a rendered text table whose rows
// mirror what the paper reports.
package bench

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eventloop"
	"repro/internal/stats"
)

func init() {
	// The harness runs many short-lived interpreter realms whose live heap
	// is tiny while their allocation rate is enormous — the worst case for
	// Go's default GOGC=100, which was spending ~a quarter of benchmark
	// wall time in collection cycles with near-empty live sets. Batch
	// benchmarking is a throughput workload; trade heap headroom for it
	// the way any engine embedder would. This is harness configuration,
	// not library behavior: importing internal/interp leaves the host's
	// GC policy alone.
	debug.SetGCPercent(800)
}

// Config controls measurement effort.
type Config struct {
	// Repeats is the number of timed runs per data point (the paper uses
	// 10).
	Repeats int
	// Quick shrinks everything for smoke tests.
	Quick bool
}

// DefaultConfig matches the paper's methodology at laptop scale.
func DefaultConfig() Config { return Config{Repeats: 5} }

// QuickConfig is for tests and -quick runs.
func QuickConfig() Config { return Config{Repeats: 1, Quick: true} }

// Measurement is one timed data point.
type Measurement struct {
	Name     string
	Slowdown float64
	RawMs    float64
	StopMs   float64
}

// timeStopified compiles once, then times Repeats executions, returning the
// median wall-clock milliseconds.
func timeStopified(src string, opts core.Opts, eng *engine.Profile, repeats int) (float64, error) {
	c, err := core.Compile(src, opts)
	if err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < repeats; i++ {
		run, err := c.NewRun(core.RunConfig{Engine: eng, Seed: 1})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := run.RunToCompletion(); err != nil {
			return 0, fmt.Errorf("stopified run: %w", err)
		}
		samples = append(samples, float64(time.Since(start))/1e6)
	}
	return stats.Median(samples), nil
}

// timeRaw times the uninstrumented program, or a baseline's already
// transformed plain-JS output.
func timeRaw(src string, eng *engine.Profile, repeats int) (float64, error) {
	var samples []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if _, err := core.RunRaw(src, core.RunConfig{Engine: eng, Seed: 1}); err != nil {
			return 0, fmt.Errorf("raw run: %w", err)
		}
		samples = append(samples, float64(time.Since(start))/1e6)
	}
	return stats.Median(samples), nil
}

// verifySame checks that the stopified program prints what the raw program
// prints before anything is timed.
func verifySame(src string, opts core.Opts, eng *engine.Profile) error {
	want, err := core.RunRaw(src, core.RunConfig{Engine: eng, Clock: eventloop.NewVirtualClock(), Seed: 1})
	if err != nil {
		return fmt.Errorf("raw: %w", err)
	}
	got, err := core.RunSource(src, opts, core.RunConfig{Engine: eng, Clock: eventloop.NewVirtualClock(), Seed: 1})
	if err != nil {
		return fmt.Errorf("stopified: %w", err)
	}
	if got != want {
		return fmt.Errorf("output mismatch: raw %q vs stopified %q", want, got)
	}
	return nil
}

// slowdown measures time(stopified)/time(raw) for one benchmark.
func slowdown(name, src string, opts core.Opts, eng *engine.Profile, cfg Config) (Measurement, error) {
	if err := verifySame(src, opts, eng); err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", name, err)
	}
	raw, err := timeRaw(src, eng, cfg.Repeats)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", name, err)
	}
	stop, err := timeStopified(src, opts, eng, cfg.Repeats)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", name, err)
	}
	m := Measurement{Name: name, RawMs: raw, StopMs: stop}
	if raw > 0 {
		m.Slowdown = stop / raw
	}
	return m, nil
}

// table is a tiny text-table builder.
type table struct {
	buf   bytes.Buffer
	title string
}

func newTable(title string) *table {
	t := &table{title: title}
	fmt.Fprintf(&t.buf, "== %s ==\n", title)
	return t
}

func (t *table) row(format string, args ...interface{}) {
	fmt.Fprintf(&t.buf, format+"\n", args...)
}

func (t *table) String() string { return t.buf.String() }
