package marginal

import (
	"math"
	"testing"
	"testing/quick"

	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

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
	if err != nil || m.Dim() != 2 {
		t.Errorf("New: %v, dim=%d", err, m.Dim())
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
	if got := m.Count([]value.Value{value.Text("UK")}); got != 15 {
		t.Errorf("UK count = %g", got)
	}
	if got := m.Count([]value.Value{value.Text("DE")}); got != 0 {
		t.Errorf("missing cell count = %g", got)
	}
	if m.Total() != 22 || m.Len() != 2 {
		t.Errorf("Total=%g Len=%d", m.Total(), m.Len())
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

func TestProject(t *testing.T) {
	m, _ := New("m", []string{"c", "e"})
	add := func(c, e string, n float64) {
		if err := m.Add([]value.Value{value.Text(c), value.Text(e)}, n); err != nil {
			t.Fatal(err)
		}
	}
	add("UK", "Yahoo", 10)
	add("UK", "AOL", 2)
	add("FR", "Yahoo", 5)
	p, err := m.Project("c")
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 1 {
		t.Errorf("projected dim = %d", p.Dim())
	}
	if got := p.Count([]value.Value{value.Text("UK")}); got != 12 {
		t.Errorf("projected UK = %g", got)
	}
	if p.Total() != m.Total() {
		t.Errorf("projection changed total: %g vs %g", p.Total(), m.Total())
	}
	if _, err := m.Project("zzz"); err == nil {
		t.Error("projecting missing attribute should fail")
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

func TestCloneIsDeep(t *testing.T) {
	m, _ := New("m", []string{"a"})
	_ = m.Add([]value.Value{value.Int(1)}, 10)
	c := m.Clone()
	_ = c.Add([]value.Value{value.Int(1)}, 5)
	if m.Total() != 10 || c.Total() != 15 {
		t.Errorf("clone not deep: %g vs %g", m.Total(), c.Total())
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
	if got := m.Count([]value.Value{value.Text("a")}); got != 3 {
		t.Errorf("weighted count a = %g", got)
	}
	// 2-D from table.
	m2, err := FromTable("m2", tbl, []string{"c", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 2 {
		t.Errorf("2-D cells = %d", m2.Len())
	}
	if _, err := FromTable("bad", tbl, []string{"nope"}); err == nil {
		t.Error("missing attribute should fail")
	}
}

func TestConsistentTotals(t *testing.T) {
	a, _ := New("a", []string{"x"})
	b, _ := New("b", []string{"y"})
	_ = a.Add([]value.Value{value.Int(1)}, 100)
	_ = b.Add([]value.Value{value.Int(2)}, 100.0001)
	if err := ConsistentTotals([]*Marginal{a, b}, 1e-3); err != nil {
		t.Errorf("near-equal totals should pass: %v", err)
	}
	_ = b.Add([]value.Value{value.Int(3)}, 50)
	if err := ConsistentTotals([]*Marginal{a, b}, 1e-3); err == nil {
		t.Error("inconsistent totals should fail")
	}
	if err := ConsistentTotals([]*Marginal{a}, 1e-3); err != nil {
		t.Error("single marginal is trivially consistent")
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

func TestProjectPreservesTotalProperty(t *testing.T) {
	f := func(cells []struct {
		A, B uint8
		N    uint16
	}) bool {
		m, _ := New("m", []string{"a", "b"})
		for _, c := range cells {
			if err := m.Add([]value.Value{value.Int(int64(c.A)), value.Int(int64(c.B))}, float64(c.N)); err != nil {
				return false
			}
		}
		if m.Len() == 0 {
			return true
		}
		pa, err := m.Project("a")
		if err != nil {
			return false
		}
		pb, err := m.Project("b")
		if err != nil {
			return false
		}
		return math.Abs(pa.Total()-m.Total()) < 1e-6 && math.Abs(pb.Total()-m.Total()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNumericCellKeysCoincide(t *testing.T) {
	// Int and Float cells that compare equal merge into one cell.
	m, _ := New("m", []string{"x"})
	_ = m.Add([]value.Value{value.Int(2)}, 1)
	_ = m.Add([]value.Value{value.Float(2.0)}, 3)
	if m.Len() != 1 || m.Total() != 4 {
		t.Errorf("numeric key merge: len=%d total=%g", m.Len(), m.Total())
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
	if m.Len() != 2 {
		t.Fatalf("binned cells = %d, want 2", m.Len())
	}
	if got := m.Count([]value.Value{value.Int(209)}); got != 3 {
		t.Errorf("bin [200,210) count = %g, want 3", got)
	}
	cells := m.SortedCells()
	if cells[0].Vals[0].AsFloat() != 205 {
		t.Errorf("bin midpoint = %v, want 205", cells[0].Vals[0])
	}
	// KeyFor agrees with Add's keying.
	k1, err := m.KeyFor([]value.Value{value.Int(201)})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := m.KeyFor([]value.Value{value.Float(209.9)})
	if k1 != k2 {
		t.Error("values in the same bin must share a key")
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

func TestBinnedProjectionCarriesWidth(t *testing.T) {
	m, _ := New("m", []string{"c", "e"})
	if err := m.SetBinWidth("e", 10); err != nil {
		t.Fatal(err)
	}
	_ = m.Add([]value.Value{value.Text("a"), value.Int(203)}, 1)
	_ = m.Add([]value.Value{value.Text("b"), value.Int(207)}, 1)
	p, err := m.Project("e")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Errorf("projected binned cells = %d, want 1", p.Len())
	}
	if p.BinWidth(0) != 10 {
		t.Errorf("projected bin width = %g", p.BinWidth(0))
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
	if m.Len() != 2 || m.Count([]value.Value{value.Int(5)}) != 3 {
		t.Errorf("binned from-table: len=%d", m.Len())
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

	gk, wk := got.CellKeys(), want.CellKeys()
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
// order, value kinds, counts bit for bit.
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
	if !base.Equal(base) || !base.Equal(build("M", 0, one, two)) || !base.Equal(base.Clone()) {
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
}
