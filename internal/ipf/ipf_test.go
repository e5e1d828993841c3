package ipf

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"mosaic/internal/marginal"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

var sc2 = schema.MustNew(
	schema.Attribute{Name: "a", Kind: value.KindText},
	schema.Attribute{Name: "b", Kind: value.KindText},
)

func cell(t *testing.T, m *marginal.Marginal, count float64, vals ...string) {
	t.Helper()
	vv := make([]value.Value, len(vals))
	for i, s := range vals {
		vv[i] = value.Text(s)
	}
	if err := m.Add(vv, count); err != nil {
		t.Fatal(err)
	}
}

func row(t *testing.T, tbl *table.Table, a, b string) {
	t.Helper()
	if err := tbl.Append([]value.Value{value.Text(a), value.Text(b)}); err != nil {
		t.Fatal(err)
	}
}

// classic 2x2 contingency table example (Deming–Stephan).
func buildClassic(t *testing.T) (*table.Table, []*marginal.Marginal) {
	tbl := table.New("s", sc2)
	// One tuple per cell; IPF must find cell weights matching both margins.
	row(t, tbl, "x1", "y1")
	row(t, tbl, "x1", "y2")
	row(t, tbl, "x2", "y1")
	row(t, tbl, "x2", "y2")
	ma, _ := marginal.New("ma", []string{"a"})
	cell(t, ma, 60, "x1")
	cell(t, ma, 40, "x2")
	mb, _ := marginal.New("mb", []string{"b"})
	cell(t, mb, 70, "y1")
	cell(t, mb, 30, "y2")
	return tbl, []*marginal.Marginal{ma, mb}
}

func TestFitMatchesBothMarginals(t *testing.T) {
	tbl, ms := buildClassic(t)
	w, res, err := Fit(tbl, ms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge: %+v", res)
	}
	// Row order: (x1,y1),(x1,y2),(x2,y1),(x2,y2)
	x1 := w[0] + w[1]
	y1 := w[0] + w[2]
	if math.Abs(x1-60) > 1e-3 {
		t.Errorf("x1 margin = %g, want 60", x1)
	}
	if math.Abs(y1-70) > 1e-3 {
		t.Errorf("y1 margin = %g, want 70", y1)
	}
	var tot float64
	for _, x := range w {
		tot += x
	}
	if math.Abs(tot-100) > 1e-3 {
		t.Errorf("total = %g, want 100", tot)
	}
}

func TestFitWith2DMarginal(t *testing.T) {
	tbl := table.New("s", sc2)
	row(t, tbl, "x1", "y1")
	row(t, tbl, "x1", "y1") // two tuples share a cell
	row(t, tbl, "x2", "y2")
	m, _ := marginal.New("m", []string{"a", "b"})
	cell(t, m, 10, "x1", "y1")
	cell(t, m, 4, "x2", "y2")
	w, res, err := Fit(tbl, []*marginal.Marginal{m}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("2-D fit did not converge")
	}
	if math.Abs(w[0]+w[1]-10) > 1e-6 || math.Abs(w[2]-4) > 1e-6 {
		t.Errorf("weights = %v", w)
	}
	// Tuples sharing a cell split the mass evenly from a uniform seed.
	if math.Abs(w[0]-w[1]) > 1e-9 {
		t.Errorf("cell mass not split evenly: %v", w)
	}
}

func TestSeedWeightsInfluenceSplit(t *testing.T) {
	// Within a cell, IPF scales tuples proportionally to their seed weight.
	tbl := table.New("s", sc2)
	row(t, tbl, "x1", "y1")
	row(t, tbl, "x1", "y1")
	if err := tbl.SetWeights([]float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	m, _ := marginal.New("m", []string{"a"})
	cell(t, m, 8, "x1")
	w, _, err := Fit(tbl, []*marginal.Marginal{m}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-2) > 1e-9 || math.Abs(w[1]-6) > 1e-9 {
		t.Errorf("seeded split = %v, want [2 6]", w)
	}
}

func TestUnreachableMassRenormalization(t *testing.T) {
	// Sample covers only Yahoo; the email marginal has Gmail mass too.
	tbl := table.New("s", sc2)
	row(t, tbl, "UK", "Yahoo")
	row(t, tbl, "FR", "Yahoo")
	me, _ := marginal.New("email", []string{"b"})
	cell(t, me, 30, "Yahoo")
	cell(t, me, 70, "Gmail") // unreachable
	mc, _ := marginal.New("country", []string{"a"})
	cell(t, mc, 60, "UK")
	cell(t, mc, 40, "FR")
	w, res, err := Fit(tbl, []*marginal.Marginal{me, mc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnreachableMass != 70 {
		t.Errorf("unreachable mass = %g, want 70", res.UnreachableMass)
	}
	// Renormalized: the Yahoo tuples represent the whole population (100).
	if tot := w[0] + w[1]; math.Abs(tot-100) > 1e-3 {
		t.Errorf("renormalized total = %g, want 100", tot)
	}
	if math.Abs(w[0]-60) > 1e-3 {
		t.Errorf("UK weight = %g, want 60", w[0])
	}
}

func TestKeepUnreachableTargetsDisablesRenorm(t *testing.T) {
	tbl := table.New("s", sc2)
	row(t, tbl, "UK", "Yahoo")
	me, _ := marginal.New("email", []string{"b"})
	cell(t, me, 30, "Yahoo")
	cell(t, me, 70, "Gmail")
	w, _, err := Fit(tbl, []*marginal.Marginal{me}, Options{KeepUnreachableTargets: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-30) > 1e-6 {
		t.Errorf("raw-target weight = %g, want 30", w[0])
	}
}

func TestZeroTargetCellsDriveWeightToZero(t *testing.T) {
	// A sample tuple whose marginal cell is absent gets zero target.
	tbl := table.New("s", sc2)
	row(t, tbl, "UK", "Yahoo")
	row(t, tbl, "XX", "Yahoo") // XX not in the country marginal
	mc, _ := marginal.New("country", []string{"a"})
	cell(t, mc, 10, "UK")
	w, res, err := Fit(tbl, []*marginal.Marginal{mc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge: %+v", res)
	}
	if w[1] != 0 {
		t.Errorf("zero-target tuple weight = %g, want 0", w[1])
	}
	if math.Abs(w[0]-10) > 1e-6 {
		t.Errorf("UK weight = %g", w[0])
	}
}

func TestFitErrors(t *testing.T) {
	tbl := table.New("s", sc2)
	m, _ := marginal.New("m", []string{"a"})
	cell(t, m, 5, "x")
	if _, _, err := Fit(tbl, []*marginal.Marginal{m}, Options{}); err == nil {
		t.Error("empty sample should fail")
	}
	row(t, tbl, "x", "y")
	if _, _, err := Fit(tbl, nil, Options{}); err == nil {
		t.Error("no marginals should fail")
	}
	bad, _ := marginal.New("bad", []string{"zzz"})
	cell(t, bad, 5, "x")
	if _, _, err := Fit(tbl, []*marginal.Marginal{bad}, Options{}); err == nil {
		t.Error("marginal over missing attribute should fail")
	}
	if err := tbl.SetWeights([]float64{0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Fit(tbl, []*marginal.Marginal{m}, Options{}); err == nil {
		t.Error("all-zero seed should fail")
	}
}

func TestApplyInstallsWeights(t *testing.T) {
	tbl, ms := buildClassic(t)
	res, err := ApplyContext(context.Background(), tbl, ms, Options{})
	if err != nil || !res.Converged {
		t.Fatalf("ApplyContext: %v %+v", err, res)
	}
	var total float64
	for _, w := range tbl.Weights() {
		total += w
	}
	if math.Abs(total-100) > 1e-3 {
		t.Errorf("installed total = %g", total)
	}
}

func TestFitNonNegativityProperty(t *testing.T) {
	// Property: IPF weights are always non-negative and the fitted total
	// matches the marginal total for reachable-everywhere marginals.
	f := func(counts [4]uint8) bool {
		tbl := table.New("s", sc2)
		for _, ab := range [][2]string{{"x1", "y1"}, {"x1", "y2"}, {"x2", "y1"}, {"x2", "y2"}} {
			if err := tbl.Append([]value.Value{value.Text(ab[0]), value.Text(ab[1])}); err != nil {
				return false
			}
		}
		ma, _ := marginal.New("ma", []string{"a"})
		mb, _ := marginal.New("mb", []string{"b"})
		c := [4]float64{float64(counts[0]) + 1, float64(counts[1]) + 1, float64(counts[2]) + 1, float64(counts[3]) + 1}
		tot := c[0] + c[1] + c[2] + c[3]
		_ = ma.Add([]value.Value{value.Text("x1")}, c[0]+c[1])
		_ = ma.Add([]value.Value{value.Text("x2")}, c[2]+c[3])
		_ = mb.Add([]value.Value{value.Text("y1")}, c[0]+c[2])
		_ = mb.Add([]value.Value{value.Text("y2")}, c[1]+c[3])
		w, res, err := Fit(tbl, []*marginal.Marginal{ma, mb}, Options{})
		if err != nil || !res.Converged {
			return false
		}
		var sum float64
		for _, x := range w {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-tot) < 1e-3*tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaxItersRespected(t *testing.T) {
	tbl, ms := buildClassic(t)
	_, res, err := Fit(tbl, ms, Options{MaxIters: 1, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}
