// Package wasserstein implements exact one-dimensional optimal transport,
// the computational core of the paper's M-SWG (Sec 5): on the line, the
// Wasserstein-1 distance between distributions is the L1 distance between
// their quantile functions, computable by sorting (the paper's citation
// [49]). For ≥2-dimensional marginals the sliced Wasserstein distance [46]
// projects both distributions onto random unit directions and averages the
// per-projection 1-D distances. Every sort here is radix.Sort of
// value.OrderWord — the one stable kernel and float order that ORDER BY uses
// too — because which of several equal values meets which target is part of
// the training bit-identity contract.
package wasserstein

import (
	"fmt"
	"math"
	"math/rand"

	"mosaic/internal/radix"
	"mosaic/internal/value"
)

// Weighted is a weighted 1-D empirical distribution (a projected marginal).
type Weighted struct {
	vals []float64 // sorted
	cum  []float64 // cumulative weight fractions, cum[len-1] == 1
}

// NewWeighted builds a weighted empirical distribution. Weights must be
// non-negative with positive sum; vals need not be sorted. They are ordered
// as W1ToUniform orders a batch: equal values (−0 and +0 among them) in input
// order, so their weights accumulate in input order, and NaNs last.
func NewWeighted(vals, weights []float64) (*Weighted, error) {
	if len(vals) != len(weights) {
		return nil, fmt.Errorf("wasserstein: %d values, %d weights", len(vals), len(weights))
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("wasserstein: empty distribution")
	}
	words, at := make([]uint64, 0, len(vals)), make([]int32, 0, len(vals))
	var total float64
	for i := range vals {
		if weights[i] < 0 {
			return nil, fmt.Errorf("wasserstein: negative weight %g", weights[i])
		}
		if weights[i] == 0 {
			continue
		}
		words = append(words, value.OrderWord(vals[i]))
		at = append(at, int32(i))
		total += weights[i]
	}
	if total <= 0 {
		return nil, fmt.Errorf("wasserstein: zero total weight")
	}
	radix.Sort(words, make([]uint64, len(words)), at, make([]int32, len(at)), nil)
	w := &Weighted{vals: make([]float64, len(at)), cum: make([]float64, len(at))}
	var acc float64
	for j, i := range at {
		acc += weights[i]
		w.vals[j] = vals[i]
		w.cum[j] = acc / total
	}
	w.cum[len(at)-1] = 1
	return w, nil
}

// Quantiles evaluates the quantile function at the n midpoint fractions
// (j+0.5)/n — the optimal-transport targets for a uniform batch of size n.
func (w *Weighted) Quantiles(n int) []float64 {
	out := make([]float64, n)
	j := 0
	for i := 0; i < n; i++ {
		q := (float64(i) + 0.5) / float64(n)
		for j < len(w.cum)-1 && w.cum[j] < q {
			j++
		}
		out[i] = w.vals[j]
	}
	return out
}

// W1ToUniform computes the exact W1 distance between the weighted target and
// a uniform batch x, together with the subgradient of the distance with
// respect to each x[i]. targets must be w.Quantiles(len(x)) (precomputed by
// the caller so fixed projections amortize the quantile evaluation).
//
// With both sides sorted, W1 = (1/n)·Σ |x_(j) − t_j| and ∂W1/∂x_(j) =
// sign(x_(j) − t_j)/n; the permutation maps gradients back to input order.
func W1ToUniform(x, targets []float64) (float64, []float64, error) {
	var s Scratch
	grad := make([]float64, len(x))
	d, err := s.W1ToUniform(x, targets, grad)
	return d, grad, err
}

// Scratch is the reusable state of the allocation-free W1ToUniform: the
// batch's order words and their input positions, sorted together, and the
// radix sort's second buffers. One goroutine at a time may use a Scratch.
type Scratch struct {
	words, wordBuf  []uint64 // value.OrderWord of the batch's values
	order, orderBuf []int32  // order[j] is the input position of words[j]
}

// W1ToUniform is the package-level W1ToUniform writing the subgradient into
// grad (len(x)) and allocating nothing once s has seen a batch this large.
//
// Which of several equal x values meets which target decides where the ±1/n
// subgradients land, so the tie order of the sort is part of the training
// bit-identity contract: equal values meet targets in input order (−0 equals
// +0), and NaNs come after +Inf, in input order
// (TestScratchW1TiesMeetTargetsInInputOrder).
func (s *Scratch) W1ToUniform(x, targets, grad []float64) (float64, error) {
	n := len(x)
	if len(targets) != n {
		return 0, fmt.Errorf("wasserstein: %d targets for batch of %d", len(targets), n)
	}
	if len(grad) != n {
		return 0, fmt.Errorf("wasserstein: gradient buffer of %d for batch of %d", len(grad), n)
	}
	if n == 0 {
		return 0, nil
	}
	var d float64
	inv := 1 / float64(n)
	for j, i := range s.Order(x) {
		diff := x[i] - targets[j]
		d += math.Abs(diff)
		switch {
		case diff > 0:
			grad[i] = inv
		case diff < 0:
			grad[i] = -inv
		default:
			grad[i] = 0
		}
	}
	return d * inv, nil
}

// Order returns the input positions of x in ascending order of value, equal
// values in input order (−0 equals +0), and NaNs last in input order: the
// order W1ToUniform meets its targets in, by radix.Sort of the values'
// order words. The slice is s's own and holds until s is next used.
func (s *Scratch) Order(x []float64) []int32 {
	n := len(x)
	if cap(s.words) < n {
		s.words, s.wordBuf = make([]uint64, n), make([]uint64, n)
		s.order, s.orderBuf = make([]int32, n), make([]int32, n)
	}
	words, order := s.words[:n], s.order[:n]
	for i, v := range x {
		words[i], order[i] = value.OrderWord(v), int32(i)
	}
	radix.Sort(words, s.wordBuf, order, s.orderBuf, nil)
	return order
}

// Distance computes the exact W1 between the weighted target and a uniform
// batch without gradients.
func (w *Weighted) Distance(x []float64) float64 {
	t := w.Quantiles(len(x))
	d, _, _ := W1ToUniform(x, t)
	return d
}

// RandomUnitVector draws a direction uniformly from the unit sphere in R^d
// (Gaussian normalization).
func RandomUnitVector(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for {
		var norm float64
		for i := range v {
			v[i] = rng.NormFloat64()
			norm += float64(v[i] * v[i])
		}
		if norm > 1e-12 {
			norm = math.Sqrt(norm)
			for i := range v {
				v[i] /= norm
			}
			return v
		}
	}
}

// ProjectCols projects the listed columns of each row of a flat row-major
// rows×dim matrix onto dir (len(dir) == len(cols)), one dot product per row
// into dst (len(dst) rows); used to slice a marginal's encoded subspace out of
// full generator output.
func ProjectCols(dst, data []float64, dim int, cols []int, dir []float64) {
	for r := range dst {
		row := data[r*dim : (r+1)*dim]
		var s float64
		for j, c := range cols {
			s += float64(row[c] * dir[j])
		}
		dst[r] = s
	}
}
