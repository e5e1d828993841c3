package repro

import (
	"math"
	"strings"
	"testing"

	"mosaic/internal/swg"
)

// tinySpiral is a fast configuration for CI-speed experiment tests.
func tinySpiral() SpiralConfig {
	return SpiralConfig{
		PopN: 4000, SampleN: 800, Bias: 8, Bins: 24, Seed: 5,
		SWG: swg.Config{
			Hidden: []int{24, 24}, Latent: 2, Lambda: 0.04,
			BatchSize: 200, Projections: 8, Epochs: 10, StepsPerEpoch: 4,
			LR: 0.002, Seed: 5,
		},
	}
}

func tinyFlights() FlightsConfig {
	return FlightsConfig{
		PopN: 6000, SampleFrac: 0.05, BiasFrac: 0.95, OpenSamples: 3, Seed: 5,
		SWG: swg.Config{
			Hidden: []int{24, 24}, Latent: 8, Lambda: 1e-6,
			BatchSize: 150, Projections: 8, Epochs: 8, StepsPerEpoch: 2,
			LR: 0.002, Seed: 5,
		},
	}
}

func TestFigure5SmokeAndDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	res, err := RunFigure5(tinySpiral())
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedN != 800 {
		t.Errorf("generated %d rows", res.GeneratedN)
	}
	// The headline claim of Fig 5: the generated sample matches the
	// population marginals better than the biased sample does.
	if res.GenW1X >= res.SampleW1X {
		t.Errorf("x marginal: M-SWG W1 %.4f not better than biased sample %.4f", res.GenW1X, res.SampleW1X)
	}
	if s := res.String(); !strings.Contains(s, "Figure 5") {
		t.Error("String missing header")
	}
	for _, v := range []float64{res.SampleW1X, res.SampleW1Y, res.GenW1X, res.GenW1Y, res.SampleShape, res.GenShape} {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("bad metric %g", v)
		}
	}
}

func TestFigure6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	cfg := Fig6Config{Spiral: tinySpiral(), Coverages: []float64{0.3, 0.6}, Queries: 20, Replicates: 3}
	res, err := RunFigure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Unif.N == 0 || row.MSWG.N == 0 {
			t.Errorf("coverage %g: empty boxes", row.Coverage)
		}
		if row.Unif.Mean < 0 || row.MSWG.Mean < 0 {
			t.Errorf("coverage %g: negative error", row.Coverage)
		}
	}
	// Wide boxes: both methods should do reasonably; the biased sample's
	// error should be visibly nonzero (it is badly skewed).
	if res.Rows[1].Unif.Mean < 0.05 {
		t.Errorf("biased sample error suspiciously low: %v", res.Rows[1].Unif)
	}
	if s := res.String(); !strings.Contains(s, "Figure 6") {
		t.Error("String missing header")
	}
}

func TestFigure7SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	res, err := RunFigure7(tinyFlights())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for name, v := range map[string]float64{"unif": row.Unif, "ipf": row.IPF, "mswg": row.MSWG} {
			if math.IsNaN(v) || v < 0 {
				t.Errorf("query %d %s error = %g", row.ID, name, v)
			}
		}
	}
	// Shape checks from the paper:
	// Query 1's predicate matches the bias — Unif and IPF are nearly exact.
	if res.Rows[0].Unif > 0.05 {
		t.Errorf("query 1 Unif error %.4f; should be near zero (sample matches predicate)", res.Rows[0].Unif)
	}
	// Query 3: the biased sample overestimates AVG(E); IPF should not be
	// worse than Unif by much, and the raw sample must show real error.
	if res.Rows[2].Unif < 0.01 {
		t.Errorf("query 3 Unif error %.4f; biased sample should err here", res.Rows[2].Unif)
	}
	if s := res.String(); !strings.Contains(s, "Figure 7") {
		t.Error("String missing header")
	}
}

func TestVisibilityTableMatchesPaperStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	res, err := RunVisibility(VisibilityConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byVis := map[string]VisibilityRow{}
	for _, r := range res.Rows {
		byVis[r.Visibility] = r
	}
	n := res.MissingFromSample
	if n == 0 {
		t.Fatal("experiment must have missing tuples")
	}
	// Sec 3.3's table: CLOSED and SEMI-OPEN have exactly n FN and 0 FP.
	for _, vis := range []string{"CLOSED", "SEMI-OPEN"} {
		if byVis[vis].FalseNegatives != n {
			t.Errorf("%s FN = %d, want %d", vis, byVis[vis].FalseNegatives, n)
		}
		if byVis[vis].FalsePositives != 0 {
			t.Errorf("%s FP = %d, want 0", vis, byVis[vis].FalsePositives)
		}
	}
	// OPEN: FN ≤ n (possibly fewer), FP ≥ 0.
	if byVis["OPEN"].FalseNegatives > n {
		t.Errorf("OPEN FN = %d exceeds n = %d", byVis["OPEN"].FalseNegatives, n)
	}
	if s := res.String(); !strings.Contains(s, "False Negative") {
		t.Error("String missing header")
	}
}

func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	res, err := RunSweep(SweepConfig{Flights: tinyFlights(), Queries: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.NonEmpty == 0 {
		t.Fatal("no non-empty queries")
	}
	if res.MSWGBeatsUnif < 0 || res.MSWGBeatsUnif > res.NonEmpty {
		t.Errorf("win count out of range: %+v", res)
	}
	if s := res.String(); !strings.Contains(s, "sweep") {
		t.Error("String missing header")
	}
}

func TestAblationMechanism(t *testing.T) {
	res, err := RunAblationMechanism(FlightsConfig{PopN: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// HT is unbiased but has sampling variance (the short-flight stratum is
	// drawn at 1 % and weighted 100×); 15 % ≈ 3 standard deviations here.
	if math.Abs(res.HTCount-res.TruthCount)/res.TruthCount > 0.15 {
		t.Errorf("HT count %.0f far from truth %.0f", res.HTCount, res.TruthCount)
	}
	if res.ClosedCount >= res.TruthCount/2 {
		t.Errorf("closed count %.0f should be far below truth %.0f", res.ClosedCount, res.TruthCount)
	}
	// IPF on the elapsed-time marginal also recovers the count.
	if math.Abs(res.IPFCount-res.TruthCount)/res.TruthCount > 0.1 {
		t.Errorf("IPF count %.0f far from truth %.0f", res.IPFCount, res.TruthCount)
	}
	// The closed AVG(E) is badly biased upward; HT and IPF fix it.
	if res.ClosedAvg <= res.TruthAvg {
		t.Errorf("closed AVG %.1f should exceed truth %.1f (long-flight bias)", res.ClosedAvg, res.TruthAvg)
	}
	if math.Abs(res.HTAvg-res.TruthAvg) >= math.Abs(res.ClosedAvg-res.TruthAvg) {
		t.Errorf("HT AVG %.1f no better than closed %.1f (truth %.1f)", res.HTAvg, res.ClosedAvg, res.TruthAvg)
	}
	if s := res.String(); !strings.Contains(s, "A3") {
		t.Error("String missing header")
	}
}

func TestAblationMarginalScope(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := RunAblationMarginalScope(tinyFlights())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.QueryErr) || math.IsNaN(res.GlobalErr) {
		t.Fatalf("NaN errors: %+v", res)
	}
	// The paper's claim: query-scope accuracy is at least as good as
	// global-scope ("accuracy will likely be lower when reweighting to fit
	// global population"). Allow equality within noise.
	if res.QueryErr > res.GlobalErr+0.05 {
		t.Errorf("query-scope err %.4f much worse than global-scope %.4f", res.QueryErr, res.GlobalErr)
	}
	if s := res.String(); !strings.Contains(s, "A4") {
		t.Error("String missing header")
	}
}

func TestAblationBayesVsSWG(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	res, err := RunAblationBayesVsSWG(tinyFlights())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.BayesErr) || math.IsNaN(row.MSWGErr) {
			t.Errorf("NaN error in %q", row.Query)
		}
	}
	if s := res.String(); !strings.Contains(s, "A5") {
		t.Error("String missing header")
	}
}

func TestAblationLambdaDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several generators")
	}
	res, err := RunAblationLambda(tinySpiral(), []float64{0.004, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Larger λ weights the proximity term more: shape distance must not
	// get worse as λ grows.
	if res.Rows[1].Shape > res.Rows[0].Shape+0.02 {
		t.Errorf("λ=%g shape %.4f worse than λ=%g shape %.4f",
			res.Rows[1].Lambda, res.Rows[1].Shape, res.Rows[0].Lambda, res.Rows[0].Shape)
	}
	if s := res.String(); !strings.Contains(s, "A1") {
		t.Error("String missing header")
	}
}

func TestAblationProjectionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several generators")
	}
	res, err := RunAblationProjections(tinySpiral(), []int{4, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.Sliced2DW1) || row.Sliced2DW1 < 0 {
			t.Errorf("p=%d sliced W1 = %g", row.Projections, row.Sliced2DW1)
		}
	}
	if s := res.String(); !strings.Contains(s, "A2") {
		t.Error("String missing header")
	}
}

func TestWithVisibility(t *testing.T) {
	got := withVisibility("SELECT AVG(d) FROM F", "OPEN")
	if got != "SELECT OPEN AVG(d) FROM F" {
		t.Errorf("withVisibility = %q", got)
	}
}

func TestQueryError(t *testing.T) {
	truth := map[string]float64{"a": 100, "b": 50}
	est := map[string]float64{"a": 110} // b missing → 100% for b
	got := queryError(est, truth)
	want := (0.1 + 1.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("queryError = %g, want %g", got, want)
	}
	if !math.IsNaN(queryError(est, nil)) {
		t.Error("empty truth should be NaN")
	}
}
