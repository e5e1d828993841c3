// Package wasserstein implements exact one-dimensional optimal transport,
// the computational core of the paper's M-SWG (Sec 5): on the line, the
// Wasserstein-1 distance between distributions is the L1 distance between
// their quantile functions, computable by sorting (the paper's citation
// [49]). For ≥2-dimensional marginals the sliced Wasserstein distance [46]
// projects both distributions onto random unit directions and averages the
// per-projection 1-D distances.
package wasserstein

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Weighted is a weighted 1-D empirical distribution (a projected marginal).
type Weighted struct {
	vals []float64 // sorted
	cum  []float64 // cumulative weight fractions, cum[len-1] == 1
}

// NewWeighted builds a weighted empirical distribution. Weights must be
// non-negative with positive sum; vals need not be sorted.
func NewWeighted(vals, weights []float64) (*Weighted, error) {
	if len(vals) != len(weights) {
		return nil, fmt.Errorf("wasserstein: %d values, %d weights", len(vals), len(weights))
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("wasserstein: empty distribution")
	}
	type pair struct{ v, w float64 }
	ps := make([]pair, 0, len(vals))
	var total float64
	for i := range vals {
		if weights[i] < 0 {
			return nil, fmt.Errorf("wasserstein: negative weight %g", weights[i])
		}
		if weights[i] == 0 {
			continue
		}
		ps = append(ps, pair{vals[i], weights[i]})
		total += weights[i]
	}
	if total <= 0 {
		return nil, fmt.Errorf("wasserstein: zero total weight")
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	w := &Weighted{vals: make([]float64, len(ps)), cum: make([]float64, len(ps))}
	var acc float64
	for i, p := range ps {
		acc += p.w
		w.vals[i] = p.v
		w.cum[i] = acc / total
	}
	w.cum[len(ps)-1] = 1
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
// batch's sort keys and their input positions, sorted together, and the
// radix sort's second buffers and digit counts. One goroutine at a time may
// use a Scratch.
type Scratch struct {
	key, keyTmp []uint64 // radixKey of the batch's values
	at, atTmp   []int32  // at[j] is the input position of key[j]
	count       [8][256]int32
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
	s.sort(x)
	var d float64
	inv := 1 / float64(n)
	for j, i := range s.at {
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
// order W1ToUniform meets its targets in. The slice is s's own and holds
// until s is next used.
func (s *Scratch) Order(x []float64) []int32 {
	if len(x) == 0 {
		return nil
	}
	s.sort(x)
	return s.at
}

// sort leaves in s.at the input positions of x in ascending order of value,
// equal values in input order: a stable LSD radix sort, one pass per 8-bit
// digit of radixKey, skipping the digits every key shares.
func (s *Scratch) sort(x []float64) {
	n := len(x)
	if cap(s.key) < n {
		s.key, s.keyTmp = make([]uint64, n), make([]uint64, n)
		s.at, s.atTmp = make([]int32, n), make([]int32, n)
	}
	key, at := s.key[:n], s.at[:n]
	keyTmp, atTmp := s.keyTmp[:n], s.atTmp[:n]
	count := &s.count
	*count = [8][256]int32{}
	for i, v := range x {
		k := radixKey(v)
		key[i], at[i] = k, int32(i)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	first := key[0]
	for d := range count {
		c := &count[d]
		shift := 8 * uint(d)
		if c[byte(first>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for j, k := range key {
			b := byte(k >> shift)
			p := c[b]
			c[b]++
			keyTmp[p], atTmp[p] = k, at[j]
		}
		key, keyTmp = keyTmp, key
		at, atTmp = atTmp, at
	}
	// After an odd number of passes the sorted order is in the second
	// buffers; swapping the names keeps s.at the sorted one.
	s.key, s.keyTmp = key, keyTmp
	s.at, s.atTmp = at, atTmp
}

// radixKey maps v to a key whose unsigned order is v's order: the sign bit
// flipped for positive values, every bit for negative ones. −0 keys as +0,
// and every NaN as the largest key, after +Inf.
func radixKey(v float64) uint64 {
	switch {
	case v == 0:
		return 1 << 63
	case v != v:
		return math.MaxUint64
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
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
