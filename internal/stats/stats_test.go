package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentDiff(t *testing.T) {
	cases := []struct {
		est, truth, want float64
	}{
		{110, 100, 0.1},
		{90, 100, 0.1},
		{100, 100, 0},
		{0, 0, 0},
		{-50, 100, 1.5},
		{50, -100, 1.5},
	}
	for _, c := range cases {
		if got := PercentDiff(c.est, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PercentDiff(%g,%g) = %g, want %g", c.est, c.truth, got, c.want)
		}
	}
	if !math.IsInf(PercentDiff(1, 0), 1) {
		t.Error("nonzero estimate of zero truth should be +Inf")
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty input should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("Q(0) = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("Q(1) = %g", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %g", q)
	}
	// Interpolation between order statistics.
	if q := Quantile([]float64{0, 10}, 0.25); q != 2.5 {
		t.Errorf("interpolated Q(0.25) = %g", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		clean := Finite(xs)
		if len(clean) == 0 {
			return true
		}
		qa := float64(a%101) / 100
		qb := float64(b%101) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(clean, qa) <= Quantile(clean, qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBoxOf(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	b := BoxOf(xs)
	if b.Median != 50 || b.Mean != 50 || b.N != 101 {
		t.Errorf("Box = %+v", b)
	}
	if b.P3 != 3 || b.P97 != 97 {
		t.Errorf("whiskers = %g, %g", b.P3, b.P97)
	}
	if b.P25 != 25 || b.P75 != 75 {
		t.Errorf("quartiles = %g, %g", b.P25, b.P75)
	}
	if s := b.String(); s == "" {
		t.Error("String empty")
	}
}

func TestFinite(t *testing.T) {
	in := []float64{1, math.NaN(), 2, math.Inf(1), math.Inf(-1), 3}
	out := Finite(in)
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Errorf("Finite = %v", out)
	}
}

func TestBoxOrderingProperty(t *testing.T) {
	// Property: box statistics are ordered p3 ≤ p25 ≤ median ≤ p75 ≤ p97.
	f := func(xs []float64) bool {
		clean := Finite(xs)
		if len(clean) == 0 {
			return true
		}
		b := BoxOf(clean)
		return b.P3 <= b.P25 && b.P25 <= b.Median && b.Median <= b.P75 && b.P75 <= b.P97
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
