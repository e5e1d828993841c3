// Package stats provides the small statistical helpers the experiment
// harness uses: percent differences (the paper's error metric), quantiles,
// and box-plot summaries (Fig 6 reports 3rd/97th-percentile whiskers with
// the mean marked).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// PercentDiff returns |est − truth| / |truth| (the paper's "average percent
// difference", reported as a fraction: Fig 6's y-axis runs 0–2.0). A zero
// truth with a zero estimate is 0; a zero truth with a non-zero estimate is
// +Inf.
func PercentDiff(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-th quantile (0..1) by linear interpolation over the
// sorted sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Box is a box-plot summary matching Fig 6's rendering: whiskers at the 3rd
// and 97th percentiles, box at the quartiles, with median and mean.
type Box struct {
	P3, P25, Median, Mean, P75, P97 float64
	N                               int
}

// BoxOf summarizes a sample.
func BoxOf(xs []float64) Box {
	return Box{
		P3:     Quantile(xs, 0.03),
		P25:    Quantile(xs, 0.25),
		Median: Quantile(xs, 0.50),
		Mean:   Mean(xs),
		P75:    Quantile(xs, 0.75),
		P97:    Quantile(xs, 0.97),
		N:      len(xs),
	}
}

// String renders the box compactly.
func (b Box) String() string {
	return fmt.Sprintf("p3=%.4f p25=%.4f med=%.4f mean=%.4f p75=%.4f p97=%.4f (n=%d)",
		b.P3, b.P25, b.Median, b.Mean, b.P75, b.P97, b.N)
}

// Finite filters out NaN and ±Inf entries (empty-answer queries are excluded
// from averages, as in the paper's "not-empty" filter).
func Finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}
