package dataset

import (
	"math"
	"testing"

	"mosaic/internal/sql"
	"mosaic/internal/stats"
	"mosaic/internal/value"
)

func TestSpiralShape(t *testing.T) {
	pop := Spiral(SpiralConfig{N: 5000, Seed: 2})
	if pop.Len() != 5000 {
		t.Fatalf("N = %d", pop.Len())
	}
	xs, err := pop.FloatColumn("x")
	if err != nil {
		t.Fatal(err)
	}
	ys, err := pop.FloatColumn("y")
	if err != nil {
		t.Fatal(err)
	}
	// Roughly in the unit square (Fig 5 axes).
	for i := range xs {
		if xs[i] < -0.3 || xs[i] > 1.3 || ys[i] < -0.5 || ys[i] > 1.3 {
			t.Fatalf("point (%g,%g) far outside plot range", xs[i], ys[i])
		}
	}
	// Spiral is hollow: few points near the center (0.5, 0.4).
	near := 0
	for i := range xs {
		dx, dy := xs[i]-0.5, ys[i]-0.4
		if math.Sqrt(dx*dx+dy*dy) < 0.03 {
			near++
		}
	}
	if frac := float64(near) / float64(len(xs)); frac > 0.05 {
		t.Errorf("center density %g too high for a spiral", frac)
	}
}

func TestSpiralDeterministicPerSeed(t *testing.T) {
	a := Spiral(SpiralConfig{N: 100, Seed: 5})
	b := Spiral(SpiralConfig{N: 100, Seed: 5})
	for i := 0; i < 100; i++ {
		if value.Compare(a.Row(i)[0], b.Row(i)[0]) != 0 {
			t.Fatal("same seed, different spiral")
		}
	}
	c := Spiral(SpiralConfig{N: 100, Seed: 6})
	if value.Compare(a.Row(0)[0], c.Row(0)[0]) == 0 {
		t.Error("different seeds produced identical first row")
	}
}

func TestBiasedSpiralSampleIsBiased(t *testing.T) {
	pop := Spiral(SpiralConfig{N: 20000, Seed: 3})
	s, err := BiasedSpiralSample(pop, 5000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5000 {
		t.Fatalf("sample size = %d", s.Len())
	}
	frac := func(tb interface {
		FloatColumn(string) ([]float64, error)
	}) float64 {
		xs, _ := tb.FloatColumn("x")
		hi := 0
		for _, x := range xs {
			if x > 0.5 {
				hi++
			}
		}
		return float64(hi) / float64(len(xs))
	}
	popFrac := frac(pop)
	sampFrac := frac(s)
	if sampFrac <= popFrac+0.1 {
		t.Errorf("sample right-half fraction %.3f not biased above population %.3f", sampFrac, popFrac)
	}
	if _, err := BiasedSpiralSample(pop, 0, 8, 4); err == nil {
		t.Error("zero sample size should fail")
	}
	if _, err := BiasedSpiralSample(pop, 10, 0, 4); err == nil {
		t.Error("non-positive bias should fail")
	}
	if _, err := BiasedSpiralSample(pop, pop.Len()+1, 2, 4); err == nil {
		t.Error("oversized sample should fail")
	}
}

func TestFlightsSchemaAndRanges(t *testing.T) {
	f := Flights(FlightsConfig{N: 10000, Seed: 5})
	if f.Len() != 10000 {
		t.Fatalf("N = %d", f.Len())
	}
	if !f.Schema().Equal(FlightsSchema) {
		t.Error("schema mismatch")
	}
	carriers := map[string]bool{}
	for _, c := range Carriers {
		carriers[c] = true
	}
	ds, _ := f.FloatColumn("distance")
	es, _ := f.FloatColumn("elapsed_time")
	for i := 0; i < f.Len(); i++ {
		row := f.Row(i)
		if !carriers[row[0].AsText()] {
			t.Fatalf("unknown carrier %q", row[0].AsText())
		}
		if ds[i] < 50 || ds[i] > 3000 {
			t.Fatalf("distance %g out of range", ds[i])
		}
		if es[i] < 20 || es[i] > 700 {
			t.Fatalf("elapsed %g out of range", es[i])
		}
	}
}

func TestFlightsDistanceElapsedCorrelated(t *testing.T) {
	// The experiments depend on E growing with D (query 3's bias effect).
	f := Flights(FlightsConfig{N: 20000, Seed: 6})
	ds, _ := f.FloatColumn("distance")
	es, _ := f.FloatColumn("elapsed_time")
	md, me := stats.Mean(ds), stats.Mean(es)
	var cov, vd, ve float64
	for i := range ds {
		cov += (ds[i] - md) * (es[i] - me)
		vd += (ds[i] - md) * (ds[i] - md)
		ve += (es[i] - me) * (es[i] - me)
	}
	r := cov / math.Sqrt(vd*ve)
	if r < 0.8 {
		t.Errorf("corr(D,E) = %.3f, want strong positive", r)
	}
}

func TestFlightsCarrierSkew(t *testing.T) {
	// WN must be much more common than F9/HA (Table 1's skew).
	f := Flights(FlightsConfig{N: 30000, Seed: 7})
	counts := map[string]int{}
	ci, _ := f.Schema().Index("carrier")
	f.Scan(func(row []value.Value, _ float64) bool {
		counts[row[ci].AsText()]++
		return true
	})
	if counts["WN"] < 5*counts["F9"] {
		t.Errorf("WN=%d F9=%d: carrier skew too weak", counts["WN"], counts["F9"])
	}
	if counts["US"] == 0 || counts["F9"] == 0 {
		t.Error("light-hitter carriers absent; query 8 needs them")
	}
}

func TestBiasedSampleExactComposition(t *testing.T) {
	f := Flights(FlightsConfig{N: 20000, Seed: 8})
	pred, err := sql.ParseExpr("elapsed_time > 200")
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	s, err := BiasedSampleExact(f, pred, n, 0.95, "s", 9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("sample size = %d", s.Len())
	}
	long := 0
	ei, _ := s.Schema().Index("elapsed_time")
	s.Scan(func(row []value.Value, _ float64) bool {
		if row[ei].AsInt() > 200 {
			long++
		}
		return true
	})
	frac := float64(long) / float64(n)
	if math.Abs(frac-0.95) > 0.02 {
		t.Errorf("long-flight fraction = %.3f, want 0.95", frac)
	}
}

func TestBiasedSampleExactErrors(t *testing.T) {
	f := Flights(FlightsConfig{N: 100, Seed: 8})
	pred, _ := sql.ParseExpr("elapsed_time > 200")
	if _, err := BiasedSampleExact(f, pred, 0, 0.5, "s", 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := BiasedSampleExact(f, pred, 10, 1.5, "s", 1); err == nil {
		t.Error("bias > 1 should fail")
	}
	if _, err := BiasedSampleExact(f, pred, 1000, 0.5, "s", 1); err == nil {
		t.Error("oversized sample should fail")
	}
}

func TestUniformSample(t *testing.T) {
	f := Flights(FlightsConfig{N: 5000, Seed: 10})
	s, err := weightedSampleWithoutReplacement(f, 500, func([]value.Value) float64 { return 1 }, "u", 11)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 500 {
		t.Fatalf("size = %d", s.Len())
	}
	// Means should be close to the population's.
	pm, _ := f.FloatColumn("distance")
	sm, _ := s.FloatColumn("distance")
	if d := stats.PercentDiff(stats.Mean(sm), stats.Mean(pm)); d > 0.1 {
		t.Errorf("uniform sample mean off by %.3f", d)
	}
}

func TestMigrantsComposition(t *testing.T) {
	m := Migrants(MigrantsConfig{N: 10000, Seed: 12})
	if m.Len() != 10000 {
		t.Fatalf("N = %d", m.Len())
	}
	countries := map[string]int{}
	providers := map[string]int{}
	m.Scan(func(row []value.Value, _ float64) bool {
		countries[row[0].AsText()]++
		providers[row[1].AsText()]++
		return true
	})
	for _, c := range MigrantCountries {
		if countries[c] == 0 {
			t.Errorf("country %q absent", c)
		}
	}
	for _, p := range EmailProviders {
		if providers[p] == 0 {
			t.Errorf("provider %q absent", p)
		}
	}
	// AOL is a light hitter everywhere.
	if providers["AOL"] >= providers["Yahoo"] {
		t.Errorf("AOL=%d Yahoo=%d: AOL should be rare", providers["AOL"], providers["Yahoo"])
	}
	// Yahoo share differs by country (the bias the example debiases).
	ukYahoo, deYahoo := 0, 0
	ukAll, deAll := 0, 0
	m.Scan(func(row []value.Value, _ float64) bool {
		switch row[0].AsText() {
		case "UK":
			ukAll++
			if row[1].AsText() == "Yahoo" {
				ukYahoo++
			}
		case "DE":
			deAll++
			if row[1].AsText() == "Yahoo" {
				deYahoo++
			}
		}
		return true
	})
	ukShare := float64(ukYahoo) / float64(ukAll)
	deShare := float64(deYahoo) / float64(deAll)
	if ukShare <= deShare {
		t.Errorf("UK Yahoo share %.3f should exceed DE's %.3f", ukShare, deShare)
	}
}

func TestDefaultsApplied(t *testing.T) {
	if got := Spiral(SpiralConfig{}).Len(); got != 50000 {
		t.Errorf("spiral default N = %d", got)
	}
	if got := Flights(FlightsConfig{N: 10}).Len(); got != 10 {
		t.Errorf("flights explicit N = %d", got)
	}
	if got := Migrants(MigrantsConfig{N: 10}).Len(); got != 10 {
		t.Errorf("migrants explicit N = %d", got)
	}
}
