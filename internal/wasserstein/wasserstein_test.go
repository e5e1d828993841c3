package wasserstein

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestW1EmpiricalHandComputed(t *testing.T) {
	// W1({0,1},{1,2}) = mean(|0-1|,|1-2|) = 1.
	d, err := W1Empirical([]float64{0, 1}, []float64{2, 1})
	if err != nil || math.Abs(d-1) > 1e-12 {
		t.Errorf("W1 = %g, %v; want 1", d, err)
	}
	// Identical distributions.
	d, err = W1Empirical([]float64{3, 1, 2}, []float64{2, 3, 1})
	if err != nil || d != 0 {
		t.Errorf("W1 identical = %g, %v", d, err)
	}
	if _, err := W1Empirical([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("size mismatch should fail")
	}
	if d, err := W1Empirical(nil, nil); err != nil || d != 0 {
		t.Errorf("empty W1 = %g, %v", d, err)
	}
}

func TestW1TranslationProperty(t *testing.T) {
	// Property: W1(x+c, y+c) == W1(x, y); W1(x, x+c) == |c|.
	f := func(xs []float64, shift int8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true
			}
		}
		c := float64(shift)
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = xs[i] + c
		}
		d, err := W1Empirical(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(d-math.Abs(c)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestW1SymmetryProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		xs, ys = xs[:n], ys[:n]
		for i := 0; i < n; i++ {
			if math.IsNaN(xs[i]) || math.Abs(xs[i]) > 1e12 || math.IsNaN(ys[i]) || math.Abs(ys[i]) > 1e12 {
				return true
			}
		}
		d1, e1 := W1Empirical(xs, ys)
		d2, e2 := W1Empirical(ys, xs)
		return e1 == nil && e2 == nil && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewWeightedValidates(t *testing.T) {
	if _, err := NewWeighted(nil, nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := NewWeighted([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewWeighted([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWeighted([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("zero total should fail")
	}
}

func TestWeightedQuantiles(t *testing.T) {
	// Distribution: P(0)=0.5, P(10)=0.5.
	w, err := NewWeighted([]float64{10, 0}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if q := w.Quantile(0.25); q != 0 {
		t.Errorf("Q(0.25) = %g", q)
	}
	if q := w.Quantile(0.75); q != 10 {
		t.Errorf("Q(0.75) = %g", q)
	}
	if q := w.Quantile(0); q != 0 {
		t.Errorf("Q(0) = %g", q)
	}
	if q := w.Quantile(1); q != 10 {
		t.Errorf("Q(1) = %g", q)
	}
	qs := w.Quantiles(4)
	want := []float64{0, 0, 10, 10}
	for i := range want {
		if qs[i] != want[i] {
			t.Errorf("Quantiles(4) = %v, want %v", qs, want)
			break
		}
	}
}

func TestWeightedSkewedQuantiles(t *testing.T) {
	// P(1)=0.9, P(100)=0.1: the 9 lowest of 10 midpoint quantiles are 1.
	w, err := NewWeighted([]float64{1, 100}, []float64{9, 1})
	if err != nil {
		t.Fatal(err)
	}
	qs := w.Quantiles(10)
	ones := 0
	for _, q := range qs {
		if q == 1 {
			ones++
		}
	}
	if ones != 9 {
		t.Errorf("skewed quantiles = %v", qs)
	}
}

func TestWeightedMean(t *testing.T) {
	w, err := NewWeighted([]float64{0, 10}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m := w.Mean(); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("Mean = %g, want 2.5", m)
	}
}

func TestW1ToUniformGradient(t *testing.T) {
	targets := []float64{0, 1, 2}
	x := []float64{2.5, -0.5, 1.0} // sorted: -0.5, 1.0, 2.5 vs 0,1,2
	d, g, err := W1ToUniform(x, targets)
	if err != nil {
		t.Fatal(err)
	}
	// |−0.5−0| + |1−1| + |2.5−2| = 1.0; /3
	if math.Abs(d-1.0/3) > 1e-12 {
		t.Errorf("distance = %g", d)
	}
	// Gradient: x[0]=2.5 matched to 2 → +1/3; x[1]=-0.5 matched to 0 → −1/3;
	// x[2]=1.0 matched to 1 → 0.
	want := []float64{1.0 / 3, -1.0 / 3, 0}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("grad[%d] = %g, want %g", i, g[i], want[i])
		}
	}
	if _, _, err := W1ToUniform([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("target size mismatch should fail")
	}
}

func TestW1ToUniformGradientIsSubgradient(t *testing.T) {
	// Finite-difference check of the W1 subgradient at generic points.
	rng := rand.New(rand.NewSource(3))
	targets := make([]float64, 16)
	x := make([]float64, 16)
	for i := range targets {
		targets[i] = rng.Float64() * 10
		x[i] = rng.Float64() * 10
	}
	sort.Float64s(targets)
	d0, g, err := W1ToUniform(x, targets)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xp[i] += h
		dp, _, err := W1ToUniform(xp, targets)
		if err != nil {
			t.Fatal(err)
		}
		num := (dp - d0) / h
		if math.Abs(num-g[i]) > 1e-4 {
			t.Errorf("grad[%d] = %g, finite diff %g", i, g[i], num)
		}
	}
}

func TestDistanceAgainstEmpirical(t *testing.T) {
	// A Weighted built from unit weights must agree with W1Empirical.
	rng := rand.New(rand.NewSource(4))
	n := 64
	xs := make([]float64, n)
	ys := make([]float64, n)
	ones := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 1
		ones[i] = 1
	}
	w, err := NewWeighted(ys, ones)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Distance(xs)
	want, _ := W1Empirical(xs, ys)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Distance = %g, empirical = %g", got, want)
	}
}

func TestRandomUnitVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 8; d++ {
		v := RandomUnitVector(rng, d)
		if len(v) != d {
			t.Fatalf("dim %d: len %d", d, len(v))
		}
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Errorf("dim %d: norm² = %g", d, norm)
		}
	}
}

func TestProjectCols(t *testing.T) {
	pts := []float64{1, 2, 3, 4, 5, 6} // 2×3
	got := make([]float64, 2)
	ProjectCols(got, pts, 3, []int{0, 1, 2}, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("full projection = %v", got)
	}
	ProjectCols(got, pts, 3, []int{2, 0}, []float64{1, 1})
	if got[0] != 4 || got[1] != 10 {
		t.Errorf("ProjectCols = %v", got)
	}
}

// stableW1ToUniform states W1ToUniform's contract as a plain loop: input
// positions ordered by value with sort.SliceStable, so equal values (−0 and
// +0 among them) meet targets in input order, and NaNs come last, in input
// order.
func stableW1ToUniform(x, targets []float64) (float64, []float64) {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		xa, xb := x[idx[a]], x[idx[b]]
		return xa < xb || !math.IsNaN(xa) && math.IsNaN(xb)
	})
	grad := make([]float64, n)
	var d float64
	inv := 1 / float64(n)
	for j, i := range idx {
		diff := x[i] - targets[j]
		d += math.Abs(diff)
		switch {
		case diff > 0:
			grad[i] = inv
		case diff < 0:
			grad[i] = -inv
		}
	}
	return d * inv, grad
}

// TestScratchW1TiesMeetTargetsInInputOrder: where the ±1/n subgradients land
// depends on which of several equal values meets which target, and training
// is pinned bit for bit, so the tie order is part of the contract.
func TestScratchW1TiesMeetTargetsInInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s Scratch
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(700)
		x := make([]float64, n)
		targets := make([]float64, n)
		// Few distinct levels → long runs of ties; some trials add NaNs of
		// either sign, presorted or reversed runs, saturated softmax outputs
		// (exact 0 and 1), −0 beside +0 among targets on both sides of zero,
		// and values a few ulps apart, which only the low digits order.
		levels := 1 + rng.Intn(1+trial%40)
		for i := range x {
			x[i] = float64(rng.Intn(levels)) / float64(levels)
			targets[i] = rng.Float64()
		}
		switch trial % 7 {
		case 1:
			sort.Float64s(x)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(x)))
		case 3:
			for k := 0; k < n/10; k++ {
				x[rng.Intn(n)] = math.Copysign(math.NaN(), float64(rng.Intn(2)*2-1))
			}
		case 4:
			for i := range x {
				x[i] = rng.NormFloat64()
			}
		case 5:
			for i := range x {
				if x[i] == 0 && rng.Intn(2) == 0 {
					x[i] = math.Copysign(0, -1)
				}
				targets[i] -= 0.5
			}
		case 6:
			for i := range x {
				x[i] = math.Float64frombits(math.Float64bits(x[i]+1) + uint64(rng.Intn(1<<10)))
			}
		}
		sort.Float64s(targets)
		wantD, wantG := stableW1ToUniform(x, targets)
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = 99 // a reused buffer holds the last call's gradient
		}
		gotD, err := s.W1ToUniform(x, targets, grad)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("trial %d (n=%d): distance %v, stable sort %v", trial, n, gotD, wantD)
		}
		for i := range grad {
			if math.Float64bits(grad[i]) != math.Float64bits(wantG[i]) {
				t.Fatalf("trial %d (n=%d): grad[%d] %v, stable sort %v", trial, n, i, grad[i], wantG[i])
			}
		}
	}
	if _, err := s.W1ToUniform([]float64{1, 2}, []float64{1, 2}, make([]float64, 1)); err == nil {
		t.Error("short gradient buffer should fail")
	}
}

func TestW1NonNegativityProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			clean = append(clean, x)
		}
		ones := make([]float64, len(clean))
		for i := range ones {
			ones[i] = 1
		}
		w, err := NewWeighted(clean, ones)
		if err != nil {
			return false
		}
		targets := w.Quantiles(len(clean))
		d, _, err := W1ToUniform(clean, targets)
		if err != nil {
			return false
		}
		// Distance to own quantiles is 0 (the batch sorted IS the quantile
		// vector), and always non-negative.
		return d >= 0 && d < 1e-9*math.Max(1, maxAbs(clean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
