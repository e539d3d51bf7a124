package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// floorN is how many of the smallest samples a floor averages.
const floorN = 3

// minSamples is the sample count a floor needs before the benchmark trusts
// it: with fewer, one quiet second of a noisy neighbour decides the result.
const minSamples = 40

// floor estimates what an operation costs when nothing else runs: the mean
// of the three smallest samples. On a shared machine the noise other
// processes add is additive and bursty, so the low end of a long
// round-robin series repeats (±1–2 %) while means, medians and percentiles
// move by 10 % or more. Fewer than three samples average what there is; an
// empty series is NaN.
func floor(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) > floorN {
		s = s[:floorN]
	}
	return stats.Mean(s)
}

// floors applies floor to every series.
func floors(series [][]float64) []float64 {
	out := make([]float64, len(series))
	for i, s := range series {
		out[i] = floor(s)
	}
	return out
}

// sum adds a slice.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratios divides a by b element-wise.
func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// epochs slices n guests into consecutive epochs of size each; a short
// tail joins the last epoch so every guest belongs to exactly one and no
// epoch is much shorter than the rest. Each epoch is a half-open [lo, hi)
// range of guest indices.
func epochs(n, size int) [][2]int {
	if n <= 0 || size <= 0 {
		return nil
	}
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	if k := len(out); k > 1 && out[k-1][1]-out[k-1][0] < (size+1)/2 {
		out[k-2][1] = out[k-1][1]
		out = out[:k-1]
	}
	return out
}

// epochSizes counts the guests of each epoch.
func epochSizes(eps [][2]int) []int {
	out := make([]int, len(eps))
	for i, e := range eps {
		out[i] = e[1] - e[0]
	}
	return out
}

// iqrShare is the driver's steadiness measure: the distance between the
// first and third quartile as a share of the median, with the quartiles of
// Python's statistics.quantiles(values, n=4) (the exclusive method).
func iqrShare(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) < 2 {
		return 0
	}
	q := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / stats.Median(s)
}
