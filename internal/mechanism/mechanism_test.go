package mechanism_test

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

var sc = schema.MustNew(
	schema.Attribute{Name: "g", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindInt},
)

func pop(t *testing.T, n int) *table.Table {
	t.Helper()
	tbl := table.New("pop", sc)
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		// Skewed strata: group i%4 weighted by position.
		g := groups[i%4]
		if i%10 < 6 {
			g = "a" // a gets ~60%
		}
		if err := tbl.Append([]value.Value{value.Text(g), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestUniformProbability(t *testing.T) {
	u := mechanism.Uniform{Percent: 10}
	p, err := u.InclusionProb(nil, nil)
	if err != nil || p != 0.1 {
		t.Errorf("uniform prob = %g, %v", p, err)
	}
	if _, err := (mechanism.Uniform{Percent: 0}).InclusionProb(nil, nil); err == nil {
		t.Error("percent 0 should fail")
	}
	if _, err := (mechanism.Uniform{Percent: 150}).InclusionProb(nil, nil); err == nil {
		t.Error("percent 150 should fail")
	}
	if got := u.Name(); got != "UNIFORM PERCENT 10" {
		t.Errorf("Name = %q", got)
	}
}

func TestStratifiedForEqualAllocation(t *testing.T) {
	p := pop(t, 1000)
	st, err := mechanism.StratifiedFor(p, "g", 20)
	if err != nil {
		t.Fatal(err)
	}
	// Expected sample size = 200, split equally over the strata: each
	// stratum contributes 200/k expected tuples.
	counts := map[string]float64{}
	gi, _ := p.Schema().Index("g")
	p.Scan(func(row []value.Value, _ float64) bool {
		counts[row[gi].HashKey()]++
		return true
	})
	k := float64(len(counts))
	var expected float64
	for key, nh := range counts {
		prob := st.Probs[key]
		if prob <= 0 || prob > 1 {
			t.Errorf("stratum %q prob %g out of range", key, prob)
		}
		expected += prob * nh
		if prob < 1 && math.Abs(prob*nh-200/k) > 1e-9 {
			t.Errorf("stratum %q expected count %g, want %g", key, prob*nh, 200/k)
		}
	}
	if math.Abs(expected-200) > k {
		t.Errorf("total expected sample %g, want ≈200", expected)
	}
	if _, err := mechanism.StratifiedFor(p, "nope", 20); err == nil {
		t.Error("missing attribute should fail")
	}
	if _, err := mechanism.StratifiedFor(p, "g", 0); err == nil {
		t.Error("percent 0 should fail")
	}
}

func TestStratifiedInclusionProb(t *testing.T) {
	st := mechanism.Stratified{Attr: "g", Percent: 10, Probs: map[string]float64{
		value.Text("a").HashKey(): 0.05,
	}}
	row := []value.Value{value.Text("a"), value.Int(1)}
	prob, err := st.InclusionProb(row, sc)
	if err != nil || prob != 0.05 {
		t.Errorf("prob = %g, %v", prob, err)
	}
	row[0] = value.Text("unknown")
	if _, err := st.InclusionProb(row, sc); err == nil {
		t.Error("unknown stratum should fail")
	}
}

func TestBiasedMechanism(t *testing.T) {
	pred, err := sql.ParseExpr("x > 100")
	if err != nil {
		t.Fatal(err)
	}
	b := mechanism.Biased{Pred: pred, PTrue: 0.9, PFalse: 0.1}
	hi := []value.Value{value.Text("a"), value.Int(200)}
	lo := []value.Value{value.Text("a"), value.Int(50)}
	if p, _ := b.InclusionProb(hi, sc); p != 0.9 {
		t.Errorf("pred-true prob = %g", p)
	}
	if p, _ := b.InclusionProb(lo, sc); p != 0.1 {
		t.Errorf("pred-false prob = %g", p)
	}
	if b.Name() == "" {
		t.Error("Name should not be empty")
	}
}

func TestInverseWeightsHorvitzThompson(t *testing.T) {
	p := pop(t, 100)
	u := mechanism.Uniform{Percent: 25}
	w, err := mechanism.InverseWeights(p, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range w {
		if x != 4 {
			t.Fatalf("weight = %g, want 4", x)
		}
	}
	if err := mechanism.ApplyInverseWeights(p, u); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalWeight(); got != 400 {
		t.Errorf("reweighted total = %g, want 400", got)
	}
}

func TestInverseWeightsRejectBadProbs(t *testing.T) {
	p := pop(t, 10)
	st := mechanism.Stratified{Attr: "g", Probs: map[string]float64{}}
	if _, err := mechanism.InverseWeights(p, st); err == nil {
		t.Error("missing stratum probs should fail")
	}
}

func TestSampleDrawsExpectedFraction(t *testing.T) {
	p := pop(t, 20000)
	rng := rand.New(rand.NewSource(1))
	s, err := mechanism.Sample(p, mechanism.Uniform{Percent: 10}, "s", rng)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(s.Len()) / float64(p.Len())
	if math.Abs(frac-0.1) > 0.01 {
		t.Errorf("sample fraction = %g, want ≈0.10", frac)
	}
}

func TestSampleThenReweightRecoversPopulation(t *testing.T) {
	// End-to-end Horvitz–Thompson: biased draw + inverse weights ≈ truth.
	p := pop(t, 30000)
	pred, _ := sql.ParseExpr("x > 15000")
	mech := mechanism.Biased{Pred: pred, PTrue: 0.3, PFalse: 0.05}
	rng := rand.New(rand.NewSource(2))
	s, err := mechanism.Sample(p, mech, "s", rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := mechanism.ApplyInverseWeights(s, mech); err != nil {
		t.Fatal(err)
	}
	got := s.TotalWeight()
	if math.Abs(got-30000)/30000 > 0.05 {
		t.Errorf("HT total = %g, want ≈30000", got)
	}
}

func TestStratifiedSampleCoversSmallStrata(t *testing.T) {
	// Equal allocation oversamples small strata; every stratum must appear.
	p := pop(t, 10000)
	st, err := mechanism.StratifiedFor(p, "g", 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	s, err := mechanism.Sample(p, st, "s", rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	gi, _ := s.Schema().Index("g")
	s.Scan(func(row []value.Value, _ float64) bool {
		seen[row[gi].AsText()] = true
		return true
	})
	for _, g := range []string{"a", "b", "c", "d"} {
		if !seen[g] {
			t.Errorf("stratum %q missing from stratified sample", g)
		}
	}
}
