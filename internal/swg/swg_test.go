package swg

import (
	"math"
	"strings"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/schema"
	"mosaic/internal/stats"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

var mixedSchema = schema.MustNew(
	schema.Attribute{Name: "c", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindFloat},
)

func mixedSample(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("s", mixedSchema)
	rows := []struct {
		c string
		x float64
	}{
		{"a", 0.1}, {"a", 0.2}, {"b", 0.8}, {"b", 0.9}, {"a", 0.15},
	}
	for _, r := range rows {
		if err := tbl.Append([]value.Value{value.Text(r.c), value.Float(r.x)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func oneDMarginal(t *testing.T, name, attr string, cells map[float64]float64) *marginal.Marginal {
	t.Helper()
	m, err := marginal.New(name, []string{attr})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cells {
		if err := m.Add([]value.Value{value.Float(v)}, c); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func catMarginal(t *testing.T, name, attr string, cells map[string]float64) *marginal.Marginal {
	t.Helper()
	m, err := marginal.New(name, []string{attr})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cells {
		if err := m.Add([]value.Value{value.Text(v)}, c); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestBuildEncoderMixed(t *testing.T) {
	tbl := mixedSample(t)
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{0.0: 10, 1.0: 10})
	mc := catMarginal(t, "mc", "c", map[string]float64{"a": 5, "b": 5, "z": 10})
	enc, err := BuildEncoder(tbl, []*marginal.Marginal{mx, mc})
	if err != nil {
		t.Fatal(err)
	}
	// c has 3 levels (a, b from the sample; z from the marginal) → 3 dims;
	// x is continuous → 1 dim.
	if enc.Dim != 4 {
		t.Fatalf("Dim = %d, want 4", enc.Dim)
	}
	spC, err := enc.AttrSpecFor("c")
	if err != nil || !spC.Categorical || spC.Width != 3 {
		t.Errorf("c spec: %+v, %v", spC, err)
	}
	spX, err := enc.AttrSpecFor("x")
	if err != nil || spX.Categorical {
		t.Errorf("x spec: %+v, %v", spX, err)
	}
	// Continuous range widened by the marginal values 0 and 1.
	if spX.Min != 0 || spX.Max != 1 {
		t.Errorf("x range [%g,%g], want [0,1]", spX.Min, spX.Max)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tbl := mixedSample(t)
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{0.0: 1, 1.0: 1})
	enc, err := BuildEncoder(tbl, []*marginal.Marginal{mx})
	if err != nil {
		t.Fatal(err)
	}
	row := []value.Value{value.Text("b"), value.Float(0.8)}
	v, err := enc.EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	back, err := enc.DecodeRow(v)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].AsText() != "b" {
		t.Errorf("categorical round trip: %v", back[0])
	}
	if math.Abs(back[1].AsFloat()-0.8) > 1e-9 {
		t.Errorf("continuous round trip: %v", back[1])
	}
}

func TestDecodeClampsAndArgmaxes(t *testing.T) {
	tbl := mixedSample(t)
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{0.0: 1, 1.0: 1})
	enc, err := BuildEncoder(tbl, []*marginal.Marginal{mx})
	if err != nil {
		t.Fatal(err)
	}
	// Soft categorical scores: argmax wins; out-of-range continuous clamps.
	vec := make([]float64, enc.Dim)
	spC, _ := enc.AttrSpecFor("c")
	vec[spC.Offset+0] = 0.3
	vec[spC.Offset+1] = 0.7
	spX, _ := enc.AttrSpecFor("x")
	vec[spX.Offset] = 1.7 // beyond [0,1]
	row, err := enc.DecodeRow(vec)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].AsText() != "b" {
		t.Errorf("argmax decode = %v", row[0])
	}
	if row[1].AsFloat() != spX.Max {
		t.Errorf("clamp decode = %v, want %g", row[1], spX.Max)
	}
}

func TestEncoderRejectsNulls(t *testing.T) {
	tbl := table.New("s", mixedSchema)
	if err := tbl.Append([]value.Value{value.Null(), value.Float(1)}); err != nil {
		t.Fatal(err)
	}
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{1: 1})
	if _, err := BuildEncoder(tbl, []*marginal.Marginal{mx}); err == nil {
		t.Error("NULLs should be rejected")
	}
}

func TestSubspaceColsAndSoftmaxBlocks(t *testing.T) {
	tbl := mixedSample(t)
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{0: 1})
	enc, err := BuildEncoder(tbl, []*marginal.Marginal{mx})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := enc.SubspaceCols([]string{"c", "x"})
	if err != nil || len(cols) != 3 {
		t.Errorf("SubspaceCols = %v, %v", cols, err)
	}
	blocks := enc.SoftmaxBlocks()
	if len(blocks) != 1 || blocks[0][1]-blocks[0][0] != 2 {
		t.Errorf("SoftmaxBlocks = %v", blocks)
	}
}

// trainTiny builds a quick model over a 1-D continuous dataset whose
// marginal differs from the sample distribution.
func trainTiny(t *testing.T, seed int64) (*Model, *table.Table) {
	t.Helper()
	sc := schema.MustNew(schema.Attribute{Name: "x", Kind: value.KindFloat})
	tbl := table.New("s", sc)
	// Biased sample: clustered near 0.2 with a few points near 0.8 — the
	// manifold spans both regions.
	for i := 0; i < 80; i++ {
		_ = tbl.Append([]value.Value{value.Float(0.15 + 0.1*float64(i%5)/5)})
	}
	for i := 0; i < 20; i++ {
		_ = tbl.Append([]value.Value{value.Float(0.75 + 0.1*float64(i%5)/5)})
	}
	// Population marginal: half the mass at each cluster.
	m := oneDMarginal(t, "mx", "x", map[float64]float64{
		0.15: 250, 0.2: 250, 0.75: 250, 0.8: 250,
	})
	model, err := New(tbl, []*marginal.Marginal{m}, Config{
		Hidden:      []int{24, 24},
		Latent:      2,
		Epochs:      12,
		BatchSize:   128,
		Projections: 8,
		Lambda:      0.05,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Train(); err != nil {
		t.Fatal(err)
	}
	return model, tbl
}

func TestTrainingReducesLoss(t *testing.T) {
	model, _ := trainTiny(t, 3)
	h := model.History
	if len(h) == 0 {
		t.Fatal("no training history")
	}
	if h[len(h)-1] >= h[0] {
		t.Errorf("loss did not decrease: %g -> %g", h[0], h[len(h)-1])
	}
}

func TestGeneratedMarginalBeatsBiasedSample(t *testing.T) {
	model, tbl := trainTiny(t, 4)
	gen, err := model.Generate("g", 400)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Len() != 400 {
		t.Fatalf("generated %d rows", gen.Len())
	}
	// The generated upper-cluster share must sit between the biased sample's
	// (0.2) and the population's (0.5), and closer to the population.
	share := func(tb *table.Table) float64 {
		var hi, n float64
		tb.Scan(func(row []value.Value, _ float64) bool {
			if row[0].AsFloat() > 0.5 {
				hi++
			}
			n++
			return true
		})
		return hi / n
	}
	genShare := share(gen)
	sampleShare := share(tbl)
	if math.Abs(genShare-0.5) >= math.Abs(sampleShare-0.5) {
		t.Errorf("generated upper share %.3f no closer to 0.5 than sample %.3f", genShare, sampleShare)
	}
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	m1, _ := trainTiny(t, 9)
	m2, _ := trainTiny(t, 9)
	g1 := m1.GenerateEncoded(16)
	g2 := m2.GenerateEncoded(16)
	for k := range g1.Data {
		if g1.Data[k] != g2.Data[k] {
			t.Fatalf("same-seed models diverge at value %d: %g vs %g", k, g1.Data[k], g2.Data[k])
		}
	}
	m3, _ := trainTiny(t, 10)
	g3 := m3.GenerateEncoded(16)
	same := true
	for k := range g1.Data {
		if g1.Data[k] != g3.Data[k] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical output")
	}
}

func TestCategoricalGeneration(t *testing.T) {
	tbl := mixedSample(t)
	mc := catMarginal(t, "mc", "c", map[string]float64{"a": 30, "b": 70})
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{0.1: 50, 0.9: 50})
	model, err := New(tbl, []*marginal.Marginal{mc, mx}, Config{
		Hidden:      []int{16, 16},
		Latent:      3,
		Epochs:      10,
		BatchSize:   64,
		Projections: 8,
		Lambda:      0.01,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Train(); err != nil {
		t.Fatal(err)
	}
	gen, err := model.Generate("g", 200)
	if err != nil {
		t.Fatal(err)
	}
	// Every generated categorical value must be a known level.
	gen.Scan(func(row []value.Value, _ float64) bool {
		if c := row[0].AsText(); c != "a" && c != "b" {
			t.Errorf("generated unknown level %q", c)
			return false
		}
		return true
	})
}

func TestNewRejectsBadInput(t *testing.T) {
	empty := table.New("s", mixedSchema)
	mc := catMarginal(t, "mc", "c", map[string]float64{"a": 1})
	if _, err := New(empty, []*marginal.Marginal{mc}, Config{}); err == nil {
		t.Error("empty sample should fail")
	}
	tbl := mixedSample(t)
	if _, err := New(tbl, nil, Config{}); err == nil {
		t.Error("no marginals should fail")
	}
	badAttr, _ := marginal.New("bad", []string{"zzz"})
	_ = badAttr.Add([]value.Value{value.Int(1)}, 1)
	if _, err := New(tbl, []*marginal.Marginal{badAttr}, Config{}); err == nil {
		t.Error("marginal over missing attribute should fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	model, _ := trainTiny(t, 7)
	cfg := model.Config()
	if cfg.OneDWeight != 1 || cfg.PlateauPatience != 5 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestLambdaKeepsGeneratedNearSample(t *testing.T) {
	// With a large λ the generated points must hug the sample manifold
	// even where the marginal pulls away.
	sc := schema.MustNew(schema.Attribute{Name: "x", Kind: value.KindFloat})
	tbl := table.New("s", sc)
	for i := 0; i < 100; i++ {
		_ = tbl.Append([]value.Value{value.Float(0.5)})
	}
	m := oneDMarginal(t, "mx", "x", map[float64]float64{0.0: 100, 1.0: 100})
	model, err := New(tbl, []*marginal.Marginal{m}, Config{
		Hidden: []int{8}, Latent: 1, Epochs: 40, StepsPerEpoch: 5, BatchSize: 64,
		Lambda: 50, LR: 0.01, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Train(); err != nil {
		t.Fatal(err)
	}
	enc := model.GenerateEncoded(100)
	vals := enc.Data // one encoded column: the batch is the column
	// The sample sits at scaled position (0.5-0)/(1-0)=0.5.
	if mean := stats.Mean(vals); math.Abs(mean-0.5) > 0.2 {
		t.Errorf("λ-dominated mean = %.3f, want ≈0.5", mean)
	}
}

// TestBuildEncoderReadsColumnsAsScan holds BuildEncoder, which reads the
// sample's typed columns, to the row-at-a-time scan it replaced: the same
// attributes, levels in the same order, ranges to the bit, the same width,
// and the same refusal of the first NULL in row order. The worlds are the
// pinned spiral and flights samples and a table with TEXT, BOOL, INT and
// FLOAT columns whose FLOAT holds −0 before +0, NaN and ±Inf, which then
// gets NULLs in several places.
func TestBuildEncoderReadsColumnsAsScan(t *testing.T) {
	type world struct {
		name  string
		smp   *table.Table
		margs []*marginal.Marginal
	}
	var worlds []world
	smp, margs := spiralWorld(t)
	worlds = append(worlds, world{"spiral", smp, margs})
	smp, margs = flightsWorld(t)
	worlds = append(worlds, world{"flights", smp, margs})

	sc := schema.MustNew(
		schema.Attribute{Name: "c", Kind: value.KindText},
		schema.Attribute{Name: "b", Kind: value.KindBool},
		schema.Attribute{Name: "n", Kind: value.KindInt},
		schema.Attribute{Name: "f", Kind: value.KindFloat},
	)
	negZero := math.Copysign(0, -1)
	rows := [][]value.Value{
		{value.Text("q"), value.Bool(true), value.Int(3), value.Float(negZero)},
		{value.Text("p"), value.Bool(true), value.Int(-7), value.Float(0)},
		{value.Text("q"), value.Bool(false), value.Int(1 << 60), value.Float(math.NaN())},
		{value.Text("r"), value.Bool(false), value.Int(3), value.Float(math.Inf(1))},
		{value.Text("p"), value.Bool(true), value.Int(-7), value.Float(-2.5)},
		{value.Text("s"), value.Bool(false), value.Int(0), value.Float(math.Inf(-1))},
	}
	mixed := func(name string, nulls ...[2]int) world {
		tbl := table.New(name, sc)
		for r, row := range rows {
			row = append([]value.Value(nil), row...)
			for _, at := range nulls {
				if at[0] == r {
					row[at[1]] = value.Null()
				}
			}
			if err := tbl.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		mf := oneDMarginal(t, "mf", "f", map[float64]float64{-1: 1, 7: 2})
		mc := catMarginal(t, "mc", "c", map[string]float64{"p": 1, "z": 1})
		return world{name, tbl, []*marginal.Marginal{mf, mc}}
	}
	worlds = append(worlds,
		mixed("mixed"),
		mixed("null-in-row-2", [2]int{2, 3}, [2]int{4, 0}),
		mixed("null-ties-in-row-1", [2]int{1, 2}, [2]int{1, 1}, [2]int{3, 0}),
		mixed("null-in-row-5", [2]int{5, 0}),
	)

	for _, w := range worlds {
		got, gotErr := BuildEncoder(w.smp, w.margs)
		want, wantErr := scanBuildEncoder(w.smp, w.margs)
		if (wantErr != nil) != strings.HasPrefix(w.name, "null") {
			t.Fatalf("%s: the scan's error is %v", w.name, wantErr)
		}
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, the scan's %v", w.name, gotErr, wantErr)
			}
			continue
		}
		if got.Dim != want.Dim || len(got.Attrs) != len(want.Attrs) {
			t.Fatalf("%s: Dim %d over %d attributes, the scan's %d over %d", w.name, got.Dim, len(got.Attrs), want.Dim, len(want.Attrs))
		}
		for i := range want.Attrs {
			g, s := &got.Attrs[i], &want.Attrs[i]
			same := g.Name == s.Name && g.Kind == s.Kind && g.Categorical == s.Categorical &&
				math.Float64bits(g.Min) == math.Float64bits(s.Min) && math.Float64bits(g.Max) == math.Float64bits(s.Max) &&
				g.Offset == s.Offset && g.Width == s.Width && len(g.Cats) == len(s.Cats) && len(g.catIdx) == len(s.catIdx)
			for c := 0; same && c < len(s.Cats); c++ {
				k := s.Cats[c].HashKey()
				same = g.Cats[c].Kind() == s.Cats[c].Kind() && g.Cats[c].HashKey() == k && g.catIdx[k] == c
			}
			if !same {
				t.Errorf("%s: attribute %d is %+v, the scan's %+v", w.name, i, *g, *s)
			}
		}
	}
}
