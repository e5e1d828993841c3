package marginal

import (
	"math"
	"testing"
	"testing/quick"

	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// count returns the count of the cell vals snaps to, 0 when there is none.
func count(m *Marginal, vals []value.Value) float64 {
	snapped, err := m.SnapVals(vals)
	if err != nil {
		return 0
	}
	if c, ok := m.cells[cellKey(snapped)]; ok {
		return c.Count
	}
	return 0
}

func TestNewValidates(t *testing.T) {
	if _, err := New("m", nil); err == nil {
		t.Error("0 attributes should fail")
	}
	if _, err := New("m", []string{"a", "b", "c"}); err == nil {
		t.Error("3 attributes should fail")
	}
	if _, err := New("m", []string{"a", "A"}); err == nil {
		t.Error("duplicate attributes should fail")
	}
	m, err := New("m", []string{"a", "b"})
	if err != nil || len(m.Attrs) != 2 {
		t.Errorf("New: %v, dim=%d", err, len(m.Attrs))
	}
}

func TestAddAndCount(t *testing.T) {
	m, _ := New("m", []string{"country"})
	if err := m.Add([]value.Value{value.Text("UK")}, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Add([]value.Value{value.Text("UK")}, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Add([]value.Value{value.Text("FR")}, 7); err != nil {
		t.Fatal(err)
	}
	if got := count(m, []value.Value{value.Text("UK")}); got != 15 {
		t.Errorf("UK count = %g", got)
	}
	if got := count(m, []value.Value{value.Text("DE")}); got != 0 {
		t.Errorf("missing cell count = %g", got)
	}
	if m.Total() != 22 || len(m.Cells()) != 2 {
		t.Errorf("Total=%g Len=%d", m.Total(), len(m.Cells()))
	}
	if err := m.Add([]value.Value{value.Text("X")}, -1); err == nil {
		t.Error("negative count should fail")
	}
	if err := m.Add([]value.Value{value.Text("X"), value.Text("Y")}, 1); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestCellsPreserveInsertionOrder(t *testing.T) {
	m, _ := New("m", []string{"a"})
	for _, s := range []string{"z", "a", "m"} {
		if err := m.Add([]value.Value{value.Text(s)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	cells := m.Cells()
	if cells[0].Vals[0].AsText() != "z" || cells[2].Vals[0].AsText() != "m" {
		t.Errorf("insertion order lost: %v", cells)
	}
	sorted := m.SortedCells()
	if sorted[0].Vals[0].AsText() != "a" || sorted[2].Vals[0].AsText() != "z" {
		t.Errorf("sorted order wrong: %v", sorted)
	}
}

func TestScale(t *testing.T) {
	m, _ := New("m", []string{"a"})
	_ = m.Add([]value.Value{value.Int(1)}, 10)
	if err := m.Scale(2.5); err != nil {
		t.Fatal(err)
	}
	if m.Total() != 25 {
		t.Errorf("scaled total = %g", m.Total())
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := m.Scale(bad); err == nil {
			t.Errorf("Scale(%g) should fail", bad)
		}
	}
}

func TestFromTable(t *testing.T) {
	sc := schema.MustNew(
		schema.Attribute{Name: "c", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
	)
	tbl := table.New("t", sc)
	rows := []struct {
		c string
		x int64
		w float64
	}{
		{"a", 1, 1}, {"a", 1, 2}, {"b", 2, 1.5},
	}
	for _, r := range rows {
		if err := tbl.AppendWeighted([]value.Value{value.Text(r.c), value.Int(r.x)}, r.w); err != nil {
			t.Fatal(err)
		}
	}
	m, err := FromTable("m", tbl, []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := count(m, []value.Value{value.Text("a")}); got != 3 {
		t.Errorf("weighted count a = %g", got)
	}
	// 2-D from table.
	m2, err := FromTable("m2", tbl, []string{"c", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Cells()) != 2 {
		t.Errorf("2-D cells = %d", len(m2.Cells()))
	}
	if _, err := FromTable("bad", tbl, []string{"nope"}); err == nil {
		t.Error("missing attribute should fail")
	}
}

func TestCoveredAttrs(t *testing.T) {
	a, _ := New("a", []string{"C", "E"})
	b, _ := New("b", []string{"e", "d"})
	got := CoveredAttrs([]*Marginal{a, b})
	if len(got) != 3 {
		t.Errorf("covered = %v", got)
	}
}

func TestTotalEqualsCellSumProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		m, _ := New("m", []string{"a"})
		var want float64
		for i, c := range counts {
			if err := m.Add([]value.Value{value.Int(int64(i))}, float64(c)); err != nil {
				return false
			}
			want += float64(c)
		}
		return math.Abs(m.Total()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNumericCellKeysCoincide(t *testing.T) {
	// Int and Float cells that compare equal merge into one cell.
	m, _ := New("m", []string{"x"})
	_ = m.Add([]value.Value{value.Int(2)}, 1)
	_ = m.Add([]value.Value{value.Float(2.0)}, 3)
	if len(m.Cells()) != 1 || m.Total() != 4 {
		t.Errorf("numeric key merge: len=%d total=%g", len(m.Cells()), m.Total())
	}
}

func TestBinnedMarginal(t *testing.T) {
	m, _ := New("m", []string{"e"})
	if err := m.SetBinWidth("e", 10); err != nil {
		t.Fatal(err)
	}
	// 203 and 207 share the [200,210) bin with midpoint 205.
	_ = m.Add([]value.Value{value.Int(203)}, 1)
	_ = m.Add([]value.Value{value.Int(207)}, 2)
	_ = m.Add([]value.Value{value.Int(212)}, 4)
	if len(m.Cells()) != 2 {
		t.Fatalf("binned cells = %d, want 2", len(m.Cells()))
	}
	if got := count(m, []value.Value{value.Int(209)}); got != 3 {
		t.Errorf("bin [200,210) count = %g, want 3", got)
	}
	cells := m.SortedCells()
	if cells[0].Vals[0].AsFloat() != 205 {
		t.Errorf("bin midpoint = %v, want 205", cells[0].Vals[0])
	}
	if count(m, []value.Value{value.Int(201)}) != 3 || count(m, []value.Value{value.Float(209.9)}) != 3 {
		t.Error("values in the same bin must share a cell")
	}
}

func TestSetBinWidthValidation(t *testing.T) {
	m, _ := New("m", []string{"e"})
	if err := m.SetBinWidth("e", 0); err == nil {
		t.Error("zero width should fail")
	}
	if err := m.SetBinWidth("zz", 5); err == nil {
		t.Error("missing attribute should fail")
	}
	_ = m.Add([]value.Value{value.Int(1)}, 1)
	if err := m.SetBinWidth("e", 5); err == nil {
		t.Error("SetBinWidth after Add should fail")
	}
}

func TestFromTableBinned(t *testing.T) {
	sc := schema.MustNew(schema.Attribute{Name: "e", Kind: value.KindInt})
	tbl := table.New("t", sc)
	for _, v := range []int64{1, 2, 3, 11, 12} {
		if err := tbl.Append([]value.Value{value.Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := FromTableBinned("m", tbl, []string{"e"}, map[string]float64{"e": 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells()) != 2 || count(m, []value.Value{value.Int(5)}) != 3 {
		t.Errorf("binned from-table: len=%d", len(m.Cells()))
	}
}

// TestFromTableBinnedMatchesPerRowAdd: the code-tuple grouping in
// FromTableBinned must reproduce the per-row Add construction exactly —
// same cell keys, same order, same snapped values, same counts.
func TestFromTableBinnedMatchesPerRowAdd(t *testing.T) {
	sc := schema.MustNew(
		schema.Attribute{Name: "g", Kind: value.KindText},
		schema.Attribute{Name: "v", Kind: value.KindFloat},
	)
	tbl := table.New("t", sc)
	vals := []struct {
		g string
		v float64
		w float64
	}{
		{"a", 0.1, 1}, {"b", 0.49, 2}, {"a", 0.51, 0.5}, {"a", 0.1, 3},
		{"c", -0.2, 1.5}, {"b", 0.49, 1}, {"a", 1.9, 2.5},
	}
	for _, r := range vals {
		if err := tbl.AppendWeighted([]value.Value{value.Text(r.g), value.Float(r.v)}, r.w); err != nil {
			t.Fatal(err)
		}
	}
	// Add a NULL-bearing row: both constructions must key it identically.
	if err := tbl.AppendWeighted([]value.Value{value.Null(), value.Null()}, 2); err != nil {
		t.Fatal(err)
	}
	widths := map[string]float64{"v": 0.5}

	got, err := FromTableBinned("m", tbl, []string{"g", "v"}, widths)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the historical construction, one Add per row.
	want, err := New("m", []string{"g", "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := want.SetBinWidth("v", 0.5); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	for i := 0; i < snap.Len(); i++ {
		row := snap.Row(i)
		if err := want.Add([]value.Value{row[0], row[1]}, snap.Weight(i)); err != nil {
			t.Fatal(err)
		}
	}

	gk, wk := got.order, want.order
	if len(gk) != len(wk) {
		t.Fatalf("cell count %d != %d", len(gk), len(wk))
	}
	gc, wc := got.Cells(), want.Cells()
	for i := range gk {
		if gk[i] != wk[i] {
			t.Errorf("cell %d: key order diverged", i)
		}
		if gc[i].Count != wc[i].Count {
			t.Errorf("cell %d: count %g != %g", i, gc[i].Count, wc[i].Count)
		}
		for d := range gc[i].Vals {
			if gc[i].Vals[d].HashKey() != wc[i].Vals[d].HashKey() {
				t.Errorf("cell %d dim %d: value %s != %s", i, d, gc[i].Vals[d], wc[i].Vals[d])
			}
		}
	}
}

// TestEqual: two marginals are equal exactly when IPF and the generator
// would read them alike — name, attributes, bin widths, cells in insertion
// order, value kinds and float bits (-0 is not 0 here), counts bit for bit.
func TestEqual(t *testing.T) {
	build := func(name string, width float64, cells ...Cell) *Marginal {
		m, err := New(name, []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		if width > 0 {
			if err := m.SetBinWidth("v", width); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range cells {
			if err := m.Add(c.Vals, c.Count); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	cell := func(v value.Value, n float64) Cell { return Cell{Vals: []value.Value{v}, Count: n} }
	one, two := cell(value.Int(1), 40), cell(value.Int(2), 60)
	base := build("M", 0, one, two)
	if !base.Equal(base) || !base.Equal(build("M", 0, one, two)) {
		t.Error("a marginal rebuilt from the same cells in the same order is not Equal")
	}
	for what, other := range map[string]*Marginal{
		"name":       build("N", 0, one, two),
		"cell order": build("M", 0, two, one),
		"count ulp":  build("M", 0, one, cell(value.Int(2), math.Nextafter(60, 61))),
		"value kind": build("M", 0, one, cell(value.Float(2), 60)),
		"bin width":  build("M", 4, one, two),
		"fewer":      build("M", 0, one),
	} {
		if base.Equal(other) || other.Equal(base) {
			t.Errorf("marginals differing in %s compare Equal", what)
		}
	}
	if a, b := build("M", 0, cell(value.Float(math.NaN()), 1)), build("M", 0, cell(value.Float(math.NaN()), 1)); !a.Equal(b) {
		t.Error("equal NaN cells compare unequal")
	}
	if a, b := build("M", 0, cell(value.Float(0), 1)), build("M", 0, cell(value.Float(math.Copysign(0, -1)), 1)); a.Equal(b) {
		t.Error("a -0 cell compares Equal to a 0 cell")
	}
}
