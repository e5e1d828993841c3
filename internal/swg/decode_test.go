package swg

import (
	"sync"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/nn"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// decodeWorld builds a model over every column kind (TEXT, FLOAT, INT, BOOL)
// so the columnar decode path exercises all of its branches. The net is
// untrained — decode fidelity does not depend on training.
func decodeWorld(t *testing.T) *Model {
	t.Helper()
	sc := schema.MustNew(
		schema.Attribute{Name: "c", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindFloat},
		schema.Attribute{Name: "k", Kind: value.KindInt},
		schema.Attribute{Name: "b", Kind: value.KindBool},
		// A second TEXT attribute: the two decode paths intern dictionary
		// levels in different orders once several TEXT columns exist, and
		// the equivalence must hold regardless.
		schema.Attribute{Name: "d", Kind: value.KindText},
	)
	tbl := table.New("s", sc)
	rows := []struct {
		c string
		x float64
		k int64
		b bool
		d string
	}{
		{"a", 0.1, 3, true, "u"}, {"b", 0.9, 7, false, "v"}, {"a", 0.4, 5, true, "w"},
		{"c", 0.6, 1, false, "u"}, {"b", 0.2, 9, true, "v"},
	}
	for _, r := range rows {
		if err := tbl.Append([]value.Value{value.Text(r.c), value.Float(r.x), value.Int(r.k), value.Bool(r.b), value.Text(r.d)}); err != nil {
			t.Fatal(err)
		}
	}
	mc := catMarginal(t, "mc", "c", map[string]float64{"a": 5, "b": 3, "c": 2, "z": 4})
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{0: 7, 1: 7})
	m, err := New(tbl, []*marginal.Marginal{mc, mx}, Config{
		Hidden: []int{6}, Latent: 2, Projections: 2, Epochs: 1, BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// requireTablesIdentical asserts two tables agree on schema, rows (values
// and kinds), weights, typed columns, and dictionary codes.
func requireTablesIdentical(t *testing.T, a, b *table.Table) {
	t.Helper()
	if !a.Schema().Equal(b.Schema()) {
		t.Fatalf("schema mismatch: %s vs %s", a.Schema(), b.Schema())
	}
	if a.Len() != b.Len() {
		t.Fatalf("length mismatch: %d vs %d", a.Len(), b.Len())
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	for i := 0; i < sa.Len(); i++ {
		if sa.Weight(i) != sb.Weight(i) {
			t.Fatalf("row %d: weight %g vs %g", i, sa.Weight(i), sb.Weight(i))
		}
		ra, rb := sa.Row(i), sb.Row(i)
		for j := range ra {
			if ra[j].Kind() != rb[j].Kind() || !value.Equal(ra[j], rb[j]) {
				t.Fatalf("row %d col %d: %s (%s) vs %s (%s)", i, j, ra[j], ra[j].Kind(), rb[j], rb[j].Kind())
			}
		}
	}
	for j := 0; j < sa.Schema().Len(); j++ {
		ca, cb := sa.Col(j), sb.Col(j)
		if ca.Kind != cb.Kind || ca.HasNulls() != cb.HasNulls() {
			t.Fatalf("col %d: kind/null mismatch", j)
		}
		for i := 0; i < sa.Len(); i++ {
			same := true
			switch ca.Kind {
			case value.KindInt:
				same = ca.Ints[i] == cb.Ints[i]
			case value.KindFloat:
				same = ca.Floats[i] == cb.Floats[i]
			case value.KindBool:
				same = ca.Bools[i] == cb.Bools[i]
			case value.KindText:
				// Compare resolved strings, not raw codes: code NUMBERING is
				// allowed to differ across the two paths when the schema has
				// several TEXT attributes (per-attribute vs row-major
				// interning order); the stored VALUES must match exactly.
				same = sa.DictStrings()[ca.Codes[i]] == sb.DictStrings()[cb.Codes[i]]
			}
			if !same {
				t.Fatalf("col %d row %d: typed value mismatch", j, i)
			}
		}
	}
}

// TestDecodeTableMatchesRowAppend pins the column-native generation path to
// the retired row-append reference, value for value, code for code.
func TestDecodeTableMatchesRowAppend(t *testing.T) {
	m := decodeWorld(t)
	enc := m.GenerateEncodedSeeded(300, 42)
	colT, err := m.DecodeTable("g", enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowT, err := m.DecodeTableRowAppend("g", enc)
	if err != nil {
		t.Fatal(err)
	}
	requireTablesIdentical(t, colT, rowT)
}

// TestGenerateSeededWeightedMatchesResetWeights pins build-time weighting to
// generating at weight 1 and then resetting every weight to w.
func TestGenerateSeededWeightedMatchesResetWeights(t *testing.T) {
	m := decodeWorld(t)
	got, err := m.GenerateSeededWeighted("g", 120, 7, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.DecodeTableRowAppend("g", m.GenerateEncodedSeeded(120, 7))
	if err != nil {
		t.Fatal(err)
	}
	wts := want.Weights()
	for i := range wts {
		wts[i] = 2.5
	}
	if err := want.SetWeights(wts); err != nil {
		t.Fatal(err)
	}
	requireTablesIdentical(t, got, want)

	if _, err := m.GenerateSeededWeighted("g", 3, 7, -1); err == nil {
		t.Fatal("negative weight must be rejected")
	}
}

// TestDecodeTableUncoercibleLevel pins the lazy error behavior: a
// categorical level that cannot coerce to the attribute kind errors on both
// paths with the same message, and only when some row actually selects it.
func TestDecodeTableUncoercibleLevel(t *testing.T) {
	sc := schema.MustNew(schema.Attribute{Name: "c", Kind: value.KindText})
	tbl := table.New("s", sc)
	for _, s := range []string{"a", "b"} {
		if err := tbl.Append([]value.Value{value.Text(s)}); err != nil {
			t.Fatal(err)
		}
	}
	// The marginal smuggles an INT level into the TEXT attribute; decoding a
	// row that argmaxes it must fail exactly like row-append validation did.
	mBad, err := marginal.New("mc", []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []value.Value{value.Text("a"), value.Text("b"), value.Int(99)} {
		if err := mBad.Add([]value.Value{v}, 1); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(tbl, []*marginal.Marginal{mBad}, Config{Hidden: []int{4}, Latent: 2, Projections: 2, Epochs: 1, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.Enc.AttrSpecFor("c")
	if err != nil {
		t.Fatal(err)
	}
	badIdx := -1
	for i, cv := range sp.Cats {
		if cv.Kind() == value.KindInt {
			badIdx = i
		}
	}
	if badIdx < 0 {
		t.Fatal("INT level not in encoder cats")
	}
	goodVec := make([]float64, m.Enc.Dim)
	goodVec[sp.Offset] = 5 // argmax at a coercible level
	badVec := make([]float64, m.Enc.Dim)
	badVec[sp.Offset+badIdx] = 5

	batch := func(rows ...[]float64) nn.Batch {
		b := nn.NewBatch(len(rows), m.Enc.Dim)
		for i, r := range rows {
			copy(b.Row(i), r)
		}
		return b
	}

	// Good rows only: both paths succeed identically.
	colT, errCol := m.DecodeTable("g", batch(goodVec, goodVec), 1)
	rowT, errRow := m.DecodeTableRowAppend("g", batch(goodVec, goodVec))
	if errCol != nil || errRow != nil {
		t.Fatalf("good rows errored: col=%v row=%v", errCol, errRow)
	}
	requireTablesIdentical(t, colT, rowT)

	// A row selecting the bad level: both paths fail with the same message.
	_, errCol = m.DecodeTable("g", batch(goodVec, badVec), 1)
	_, errRow = m.DecodeTableRowAppend("g", batch(goodVec, badVec))
	if errCol == nil || errRow == nil {
		t.Fatalf("bad level should error: col=%v row=%v", errCol, errRow)
	}
	if errCol.Error() != errRow.Error() {
		t.Fatalf("error mismatch:\n  col: %v\n  row: %v", errCol, errRow)
	}
}

// TestDecodeTableRejectsMalformedVector: encoded vectors of the wrong width
// must error (as the row-append path always did), never panic.
func TestDecodeTableRejectsMalformedVector(t *testing.T) {
	m := decodeWorld(t)
	bad := nn.NewBatch(2, m.Enc.Dim-1)
	_, errCol := m.DecodeTable("g", bad, 1)
	_, errRow := m.DecodeTableRowAppend("g", bad)
	if errCol == nil || errRow == nil {
		t.Fatalf("short vector should error: col=%v row=%v", errCol, errRow)
	}
	if errCol.Error() != errRow.Error() {
		t.Fatalf("error mismatch:\n  col: %v\n  row: %v", errCol, errRow)
	}
}

// TestGenerateTailBatches: generation runs the network in BatchSize chunks
// and decodes each straight into the column builders, so the chunking must
// be invisible — including a final chunk of exactly one row (an eval batch
// of one is fine; only a *training* batch needs two rows).
func TestGenerateTailBatches(t *testing.T) {
	m := decodeWorld(t) // BatchSize 16
	for _, n := range []int{1, 15, 16, 17, 33, 48} {
		got, err := m.GenerateSeededWeighted("g", n, 5, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		enc := m.GenerateEncodedSeeded(n, 5)
		if enc.Rows != n || enc.Dim != m.Enc.Dim {
			t.Fatalf("n=%d: encoded batch is %dx%d", n, enc.Rows, enc.Dim)
		}
		want, err := m.DecodeTableRowAppend("g", enc)
		if err != nil {
			t.Fatal(err)
		}
		requireTablesIdentical(t, got, want)
		// A prefix of a longer seeded stream is the shorter stream: the
		// chunk boundaries do not move any latent draw.
		long := m.GenerateEncodedSeeded(n+16, 5)
		for k, v := range enc.Data {
			if v != long.Data[k] {
				t.Fatalf("n=%d: value %d differs between a %d-row and a %d-row generation", n, k, n, n+16)
			}
		}
	}
}

// TestNewRejectsBatchSizeOne: batch normalization has no statistics over one
// row; the configuration is refused up front instead of panicking in the
// first training step.
func TestNewRejectsBatchSizeOne(t *testing.T) {
	tbl := mixedSample(t)
	mx := oneDMarginal(t, "mx", "x", map[float64]float64{0.1: 50, 0.9: 50})
	if _, err := New(tbl, []*marginal.Marginal{mx}, Config{BatchSize: 1}); err == nil {
		t.Fatal("BatchSize 1 must be rejected")
	}
	m, err := New(tbl, []*marginal.Marginal{mx}, Config{Hidden: []int{4}, BatchSize: 2, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(); err != nil {
		t.Fatalf("BatchSize 2 must train: %v", err)
	}
	// GeneratedRows % BatchSize == 1: a one-row eval tail.
	if g, err := m.GenerateSeeded("g", 3, 1); err != nil || g.Len() != 3 {
		t.Fatalf("one-row tail batch: %v", err)
	}
}

// TestConcurrentGenerationSharesOneModel: replicates of one OPEN query (and
// concurrent queries) generate from one cached model at once. Generation only
// reads the model and borrows pooled scratch, so equal seeds give identical
// tables on every goroutine — and `go test -race` sees no shared write.
func TestConcurrentGenerationSharesOneModel(t *testing.T) {
	m := decodeWorld(t)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	want, err := m.GenerateSeededWeighted("g", 100, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	got := make([]*table.Table, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Other seeds in between, so pooled scratch changes hands.
				if _, errs[w] = m.GenerateSeededWeighted("g", 37, int64(100+w*10+i), 1); errs[w] != nil {
					return
				}
			}
			got[w], errs[w] = m.GenerateSeededWeighted("g", 100, 9, 2)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		requireTablesIdentical(t, got[w], want)
	}
}
