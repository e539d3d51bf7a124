package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("mean")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestStddev(t *testing.T) {
	if !almost(Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2.138089935299395) {
		t.Errorf("stddev = %v", Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if Stddev([]float64{1}) != 0 {
		t.Error("single sample stddev should be 0")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Error("odd median")
	}
	if !almost(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("even median")
	}
	xs := []float64{1, 2, 3, 4, 5}
	if !almost(Quantile(xs, 0), 1) || !almost(Quantile(xs, 1), 5) {
		t.Error("quantile extremes")
	}
	if !almost(Quantile(xs, 0.25), 2) {
		t.Errorf("q25 = %v", Quantile(xs, 0.25))
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 4}), 2) {
		t.Error("geomean")
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("geomean with non-positive input should be NaN")
	}
}

// Property: the median is bounded by min and max, and sorting is not
// observable (input order must not matter).
func TestMedianProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Median(clean)
		lo, hi := clean[0], clean[0]
		for _, x := range clean {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if m < lo || m > hi {
			return false
		}
		// reverse and recompute
		rev := make([]float64, len(clean))
		for i, x := range clean {
			rev[len(clean)-1-i] = x
		}
		return almost(Median(rev), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
