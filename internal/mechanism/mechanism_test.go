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
	if len(w) != 100 {
		t.Fatalf("%d weights for 100 rows", len(w))
	}
	for _, x := range w {
		if x != 4 {
			t.Fatalf("weight = %g, want 4", x)
		}
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
	w, err := mechanism.InverseWeights(s, mech)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, x := range w {
		got += x
	}
	if math.Abs(got-30000)/30000 > 0.05 {
		t.Errorf("HT total = %g, want ≈30000", got)
	}
}

func TestStratifiedSampleCoversSmallStrata(t *testing.T) {
	// Equal allocation oversamples small strata; every stratum must appear.
	// pop(10000) holds 7000 a and 1000 each of b, c and d: a 10 % sample
	// split equally over the four strata is 250 tuples from each.
	p := pop(t, 10000)
	probs := map[string]float64{value.Text("a").HashKey(): 250.0 / 7000}
	for _, g := range []string{"b", "c", "d"} {
		probs[value.Text(g).HashKey()] = 250.0 / 1000
	}
	st := mechanism.Stratified{Attr: "g", Percent: 10, Probs: probs}
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
