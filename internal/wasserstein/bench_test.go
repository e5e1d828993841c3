package wasserstein

import (
	"math/rand"
	"testing"
)

func benchData(n int) ([]float64, *Weighted, []float64) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	vals := make([]float64, n)
	wts := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		vals[i] = rng.NormFloat64()
		wts[i] = rng.Float64() + 0.1
	}
	w, _ := NewWeighted(vals, wts)
	return xs, w, w.Quantiles(n)
}

func BenchmarkW1ToUniform500(b *testing.B) {
	xs, _, targets := benchData(500)
	var s Scratch
	grad := make([]float64, len(xs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.W1ToUniform(xs, targets, grad); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantiles500(b *testing.B) {
	_, w, _ := benchData(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Quantiles(500)
	}
}

func BenchmarkProjectCols(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]float64, 500*18)
	for i := range pts {
		pts[i] = rng.NormFloat64()
	}
	cols := []int{0, 3, 7, 11, 15}
	dir := RandomUnitVector(rng, len(cols))
	dst := make([]float64, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ProjectCols(dst, pts, 18, cols, dir)
	}
}
