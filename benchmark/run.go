package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetric is one metric a user of the system would see. bound is the
// share of the parent's median by which a change may worsen it; the bounds
// come from the same-code calibration recorded in README.md, and
// BENCHMARK.json repeats them.
type endToEndMetric struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25},
	{"guest_ms", "ms", "lower", 0.25},
	{"slowdown", "ratio", "lower", 0.10},
	{"alloc_kb_per_guest", "KB", "lower", 0.01},
}

// openSeed generates a workload's inputs from the seed and readies it to run.
func (w *workload) openSeed(seed int64) (runner, error) {
	runtime.GOMAXPROCS(w.procs)
	return w.open(rand.New(rand.NewSource(seed)))
}

// rounds converts a time budget into the fixed round count every commit
// runs: never fewer than a floor needs.
func (w *workload) rounds(seconds int) int {
	n := int(math.Round(float64(seconds) * w.roundsPerSecond))
	if n < minSamples {
		n = minSamples
	}
	return n
}

// heapAllocBytes reads the cumulative bytes the process has allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phase is the outcome of one measured phase.
type phase struct {
	rec        *recorder
	rounds     int
	allocBytes uint64
	wall       time.Duration
}

// measure runs one warm-up round, which fills caches and finishes lazy
// set-up, then the measured rounds. Work is counted, not timed, so both
// sides of a comparison do the same; the deadline only guards a machine so
// slow that the run would outlast the driver's patience, and never cuts a
// series below the samples a floor needs.
func measure(r runner, rounds int, deadline time.Duration, tr *tracer) phase {
	r.round(newRecorder(r), nil)
	rec := newRecorder(r)
	runtime.GC()
	alloc0, t0 := heapAllocBytes(), time.Now()
	done := 0
	for done < rounds {
		r.round(rec, tr)
		done++
		if done >= minSamples && time.Since(t0) > deadline {
			break
		}
	}
	return phase{rec: rec, rounds: done, allocBytes: heapAllocBytes() - alloc0, wall: time.Since(t0)}
}

// timings reduces a run's samples to its three timing figures. Every one is
// built from floors.
func (rec *recorder) timings() (guestMs, guestsPerS, slowdown float64) {
	guest, raw, epoch := floors(rec.guest), floors(rec.raw), floors(rec.epoch)
	perRound := 0
	for _, n := range rec.epochGuests {
		perRound += n
	}
	// What one guest costs at the quiet floor, averaged over the slots.
	guestMs = stats.Mean(guest)
	// Guests per second when each epoch runs at its floor; an epoch is long
	// enough to pay for the collections and queueing a single guest dodges.
	guestsPerS = float64(perRound) / (sum(epoch) / 1000)
	// What execution control costs over plain execution.
	slowdown = stats.GeoMean(ratios(guest, raw))
	return guestMs, guestsPerS, slowdown
}

// setupChildren is how many fresh processes the cold start is floored over.
const setupChildren = 7

// setupChildFlag makes the process do one cold start and exit.
const setupChildFlag = "-setup-child"

// coldStart is the body of a set-up child: everything from process start
// to the first verified round — inputs generated, programs compiled, the
// supervisor up, every guest run once through the workload's path.
func coldStart(w *workload, seed int64) error {
	r, err := w.openSeed(seed)
	if err != nil {
		return err
	}
	defer r.close()
	rec := newRecorder(r)
	r.round(rec, nil)
	if rec.failed > 0 {
		return fmt.Errorf("%d of %d outputs wrong: %s", rec.failed, rec.ops, rec.firstFailure)
	}
	return nil
}

// measureSetup times cold starts of fresh copies of this binary, from
// process creation to exit, and floors them. Work a change moves into
// one-time initialisation shows here.
func measureSetup(w *workload, seed int64, children int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	samples := make([]float64, 0, children)
	for i := 0; i < children; i++ {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), setupChildFlag)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.procs))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return floor(samples), nil
}
