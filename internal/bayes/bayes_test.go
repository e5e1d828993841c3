package bayes

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

var sc = schema.MustNew(
	schema.Attribute{Name: "c", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindFloat},
	schema.Attribute{Name: "y", Kind: value.KindFloat},
)

// correlatedData builds a sample where y ≈ 2x (strong dependence) and c is
// independent noise: the Chow–Liu tree must connect x—y.
func correlatedData(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New("s", sc)
	labels := []string{"p", "q"}
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		y := 2*x + rng.NormFloat64()*0.3
		c := labels[rng.Intn(2)]
		if err := tbl.Append([]value.Value{value.Text(c), value.Float(x), value.Float(y)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestLearnBuildsTree(t *testing.T) {
	tbl := correlatedData(t, 3000, 1)
	net, err := Learn(tbl, Options{Bins: 12})
	if err != nil {
		t.Fatal(err)
	}
	par := net.parent
	if len(par) != 3 {
		t.Fatalf("parent vector = %v", par)
	}
	roots := 0
	for _, p := range par {
		if p == -1 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("tree must have exactly one root: %v", par)
	}
	// x (index 1) and y (index 2) must be adjacent: one is the other's
	// parent, directly or through the root chain of length 1.
	adjacent := par[1] == 2 || par[2] == 1
	if !adjacent {
		t.Errorf("x and y not adjacent in tree: parents=%v (dependence missed)", par)
	}
	if net.Total() != 3000 {
		t.Errorf("Total = %g", net.Total())
	}
}

func TestLearnErrors(t *testing.T) {
	empty := table.New("s", sc)
	if _, err := Learn(empty, Options{}); err == nil {
		t.Error("empty sample should fail")
	}
}

func TestSamplePreservesMarginal(t *testing.T) {
	tbl := correlatedData(t, 4000, 2)
	net, err := Learn(tbl, Options{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	// P(x ≤ q) under the network ≈ the training fraction (bin
	// representatives shift it by at most half a bin's mass).
	xs, _ := tbl.FloatColumn("x")
	rng := rand.New(rand.NewSource(3))
	for _, q := range []float64{2.5, 5, 7.5} {
		var want float64
		for _, x := range xs {
			if x <= q {
				want++
			}
		}
		want /= float64(len(xs))
		got, err := net.EstimateProb(func(row []value.Value) (bool, error) {
			return row[1].AsFloat() <= q, nil
		}, 4000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.08 {
			t.Errorf("P(x ≤ %g) = %.3f, training fraction %.3f", q, got, want)
		}
	}
}

func TestSamplePreservesDependence(t *testing.T) {
	tbl := correlatedData(t, 4000, 4)
	net, err := Learn(tbl, Options{Bins: 12})
	if err != nil {
		t.Fatal(err)
	}
	// y ≈ 2x: x > 5 and y > 10 hold together about half the time; were
	// the two independent it would be a quarter.
	p, err := net.EstimateProb(func(row []value.Value) (bool, error) {
		return row[1].AsFloat() > 5 && row[2].AsFloat() > 10, nil
	}, 4000, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.4 {
		t.Errorf("P(x > 5, y > 10) = %.3f; tree lost the dependence", p)
	}
}

func TestEstimateProb(t *testing.T) {
	tbl := correlatedData(t, 3000, 6)
	net, err := Learn(tbl, Options{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Truth: P(x > 5) ≈ 0.5 on Uniform(0,10).
	xi, _ := sc.Index("x")
	rng := rand.New(rand.NewSource(7))
	p, err := net.EstimateProb(func(row []value.Value) (bool, error) {
		return row[xi].AsFloat() > 5, nil
	}, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 0.06 {
		t.Errorf("P(x>5) = %.3f, want ≈0.5", p)
	}
}

func TestWeightedLearning(t *testing.T) {
	// Doubling a region's weights must shift the learned marginal.
	rng := rand.New(rand.NewSource(8))
	tbl := table.New("s", sc)
	for i := 0; i < 2000; i++ {
		x := rng.Float64() * 10
		w := 1.0
		if x > 5 {
			w = 4 // upweight the upper half
		}
		if err := tbl.AppendWeighted([]value.Value{
			value.Text("p"), value.Float(x), value.Float(x),
		}, w); err != nil {
			t.Fatal(err)
		}
	}
	net, err := Learn(tbl, Options{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	xi, _ := sc.Index("x")
	p, err := net.EstimateProb(func(row []value.Value) (bool, error) {
		return row[xi].AsFloat() > 5, nil
	}, 20000, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// Weighted mass above 5 is 4/(4+1) = 0.8.
	if math.Abs(p-0.8) > 0.06 {
		t.Errorf("weighted P(x>5) = %.3f, want ≈0.8", p)
	}
}

func TestCategoricalOnlyNetwork(t *testing.T) {
	cs := schema.MustNew(
		schema.Attribute{Name: "a", Kind: value.KindText},
		schema.Attribute{Name: "b", Kind: value.KindBool},
	)
	tbl := table.New("s", cs)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		a := "x"
		if rng.Float64() < 0.3 {
			a = "y"
		}
		// b depends on a.
		b := a == "x"
		if rng.Float64() < 0.1 {
			b = !b
		}
		if err := tbl.Append([]value.Value{value.Text(a), value.Bool(b)}); err != nil {
			t.Fatal(err)
		}
	}
	net, err := Learn(tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (a=x, b=true) must dominate (a=x, b=false).
	xAnd := func(b bool, seed int64) float64 {
		p, err := net.EstimateProb(func(row []value.Value) (bool, error) {
			return row[0].AsText() == "x" && row[1].AsBool() == b, nil
		}, 1000, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if xTrue, xFalse := xAnd(true, 11), xAnd(false, 12); xTrue <= xFalse {
		t.Errorf("dependence lost: x&true=%g x&false=%g", xTrue, xFalse)
	}
}
