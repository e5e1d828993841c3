package table

import (
	"math"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

var snapSchema = schema.MustNew(
	schema.Attribute{Name: "c", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindInt},
	schema.Attribute{Name: "y", Kind: value.KindFloat},
	schema.Attribute{Name: "b", Kind: value.KindBool},
)

func snapFixture(t *testing.T) *Table {
	t.Helper()
	tbl := New("t", snapSchema)
	rows := [][]value.Value{
		{value.Text("red"), value.Int(1), value.Float(0.5), value.Bool(true)},
		{value.Text("blue"), value.Int(2), value.Null(), value.Bool(false)},
		{value.Null(), value.Null(), value.Float(-1.25), value.Null()},
		{value.Text("red"), value.Int(1), value.Float(0.5), value.Bool(true)},
	}
	for i, r := range rows {
		if err := tbl.AppendWeighted(r, float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestSnapshotIsStableAcrossAppends: a snapshot captures a fixed prefix; rows
// appended afterwards are invisible to it, and a fresh snapshot sees them.
func TestSnapshotIsStableAcrossAppends(t *testing.T) {
	tbl := snapFixture(t)
	s := tbl.Snapshot()
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if err := tbl.Append([]value.Value{value.Text("green"), value.Int(9), value.Float(9), value.Bool(false)}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("old snapshot grew to %d rows", s.Len())
	}
	if got := len(s.Col(0).Codes); got != 4 {
		t.Fatalf("old snapshot text column has %d codes", got)
	}
	s2 := tbl.Snapshot()
	if s2.Len() != 5 {
		t.Fatalf("new snapshot Len = %d, want 5", s2.Len())
	}
	if s2.DictStrings()[s2.Col(0).Codes[4]] != "green" {
		t.Fatalf("appended text decodes to %q", s2.DictStrings()[s2.Col(0).Codes[4]])
	}
}

// sameValue is the storage layer's notion of "what came back is what went
// in": same kind, equal under value.Compare, and the same HashKey (which
// also separates -0 from +0 and folds every NaN together).
func sameValue(a, b value.Value) bool {
	return a.Kind() == b.Kind() && value.Compare(a, b) == 0 && a.HashKey() == b.HashKey()
}

// TestStorageRoundTrip: the typed columns are the only stored form, so every
// way of reading a table back — Row, Scan, Column, FloatColumn, Clone, a
// snapshot slice, a table reassembled by FromColumns — must return the
// values that were appended: all four kinds, NULLs, NaN / -0 / ±Inf,
// repeated and first-seen TEXT, and INT↔FLOAT coercion on the way in.
func TestStorageRoundTrip(t *testing.T) {
	cases := [][]value.Value{
		{value.Text("red"), value.Int(1), value.Float(0.5), value.Bool(true)},
		{value.Text("blue"), value.Int(math.MinInt64), value.Null(), value.Bool(false)},
		{value.Null(), value.Null(), value.Float(-1.25), value.Null()},
		{value.Text("red"), value.Int(math.MaxInt64), value.Float(math.NaN()), value.Bool(true)},
		{value.Text(""), value.Int(0), value.Float(math.Copysign(0, -1)), value.Bool(false)},
		{value.Text("it''s"), value.Float(7), value.Float(math.Inf(1)), value.Null()},
		{value.Text("blue"), value.Int(-3), value.Int(4), value.Bool(true)},
		{value.Null(), value.Float(2.9), value.Float(math.Inf(-1)), value.Bool(false)},
	}
	// 200 rows: enough for a 64-aligned interior slice, with a never-seen
	// TEXT value every few rows between the repeated ones.
	const n = 200
	tbl := New("t", snapSchema)
	var want [][]value.Value
	for i := 0; i < n; i++ {
		row := append([]value.Value(nil), cases[i%len(cases)]...)
		if i%5 == 0 {
			row[0] = value.Text("fresh" + string(rune('A'+i/5)))
		}
		if err := tbl.AppendWeighted(row, float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
		coerced := make([]value.Value, snapSchema.Len())
		if err := snapSchema.ValidateInto(coerced, row); err != nil {
			t.Fatal(err)
		}
		want = append(want, coerced)
	}
	check := func(what string, i int, got []value.Value) {
		t.Helper()
		if len(got) != len(want[i]) {
			t.Fatalf("%s row %d: %d values, want %d", what, i, len(got), len(want[i]))
		}
		for ci := range got {
			if !sameValue(got[ci], want[i][ci]) {
				t.Errorf("%s row %d col %d: got %s (%s), want %s (%s)", what, i, ci,
					got[ci], got[ci].Kind(), want[i][ci], want[i][ci].Kind())
			}
		}
	}

	// A reassembled table shares nothing with tbl but the values.
	full := tbl.Snapshot()
	cols := make([]Column, snapSchema.Len())
	for ci := range cols {
		c := full.Col(ci)
		cols[ci] = Column{
			Kind:   c.Kind,
			Ints:   append([]int64(nil), c.Ints...),
			Floats: append([]float64(nil), c.Floats...),
			Bools:  append([]bool(nil), c.Bools...),
			Codes:  append([]uint32(nil), c.Codes...),
			Nulls:  append([]uint64(nil), c.Nulls...),
		}
	}
	dict := NewDict()
	for _, str := range full.DictStrings() {
		dict.Code(str)
	}
	rebuilt, err := FromColumns("r", snapSchema, cols, tbl.Weights(), dict)
	if err != nil {
		t.Fatal(err)
	}

	for name, src := range map[string]*Table{"table": tbl, "clone": tbl.Clone("c"), "FromColumns": rebuilt} {
		if src.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", name, src.Len(), n)
		}
		snap := src.Snapshot()
		for i := 0; i < n; i++ {
			check(name+".Row", i, src.Row(i))
			check(name+".Snapshot.Row", i, snap.Row(i))
			if snap.Weight(i) != float64(i)+0.5 {
				t.Errorf("%s: weight %d = %g", name, i, snap.Weight(i))
			}
		}
		i := 0
		src.Scan(func(row []value.Value, w float64) bool {
			check(name+".Scan", i, row)
			if w != float64(i)+0.5 {
				t.Errorf("%s.Scan: weight %d = %g", name, i, w)
			}
			i++
			return true
		})
		if i != n {
			t.Errorf("%s.Scan visited %d rows", name, i)
		}
		for ci, attr := range snapSchema.Names() {
			fc, ferr := src.FloatColumn(attr)
			if (ferr != nil) != (attr == "c") {
				t.Fatalf("%s.FloatColumn(%s): err = %v", name, attr, ferr)
			}
			for i := range fc {
				// FloatColumn agrees with Float64 of the stored value, bit
				// for bit apart from NaN payloads.
				wf, _ := want[i][ci].Float64()
				if value.NumBits(fc[i]) != value.NumBits(wf) {
					t.Errorf("%s.FloatColumn(%s)[%d] = %g, want %g", name, attr, i, fc[i], wf)
				}
			}
		}
		for _, r := range [][2]int{{0, 64}, {64, 130}, {128, n}, {192, n + 50}, {256, 300}} {
			sub := snap.SliceRange(r[0], r[1])
			if wantLen := max(0, min(r[1], n)-r[0]); sub.Len() != wantLen {
				t.Fatalf("%s: SliceRange(%d, %d).Len = %d, want %d", name, r[0], r[1], sub.Len(), wantLen)
			}
			for i := 0; i < sub.Len(); i++ {
				check(name+".SliceRange.Row", r[0]+i, sub.Row(i))
				for ci := range want[0] {
					if got := sub.Value(i, ci); !sameValue(got, want[r[0]+i][ci]) {
						t.Errorf("%s: SliceRange(%d, %d).Value(%d, %d) = %s", name, r[0], r[1], i, ci, got)
					}
				}
			}
		}
	}

	// Returned rows are the caller's: writing to one changes neither the
	// table nor the next read.
	r0 := tbl.Row(0)
	r0[1] = value.Int(99)
	check("Row after caller write", 0, tbl.Row(0))

	// Dictionary interning: equal strings share one code, distinct ones don't.
	c0 := full.Col(0)
	if c0.Codes[1] != c0.Codes[6] {
		t.Error("equal strings got different dictionary codes")
	}
	if c0.Codes[1] == c0.Codes[3] {
		t.Error("distinct strings share a dictionary code")
	}
}

// TestFromColumnsRejectsBadShapes: the shape checks a per-row Append would
// have made.
func TestFromColumnsRejectsBadShapes(t *testing.T) {
	sc := schema.MustNew(schema.Attribute{Name: "x", Kind: value.KindInt})
	for name, tc := range map[string]struct {
		cols []Column
		wts  []float64
	}{
		"column count":    {nil, []float64{1}},
		"kind":            {[]Column{{Kind: value.KindFloat, Floats: []float64{1}}}, []float64{1}},
		"payload length":  {[]Column{{Kind: value.KindInt, Ints: []int64{1, 2}}}, []float64{1}},
		"negative weight": {[]Column{{Kind: value.KindInt, Ints: []int64{1}}}, []float64{-1}},
	} {
		if _, err := FromColumns("t", sc, tc.cols, tc.wts, nil); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

// TestSnapshotCodesMatchHashKeys: the exact one-column group ids must
// induce exactly the HashKey equivalence relation, row against row.
func TestSnapshotCodesMatchHashKeys(t *testing.T) {
	tbl := snapFixture(t)
	s := tbl.Snapshot()
	for ci := 0; ci < snapSchema.Len(); ci++ {
		ids, _ := s.GroupIDs([]int{ci}, nil, s.AllRows())
		for i := 0; i < s.Len(); i++ {
			for j := 0; j < s.Len(); j++ {
				idEq := ids[i] == ids[j]
				keyEq := s.Row(i)[ci].HashKey() == s.Row(j)[ci].HashKey()
				if idEq != keyEq {
					t.Errorf("col %d rows %d,%d: idEq=%v keyEq=%v (%s vs %s)",
						ci, i, j, idEq, keyEq, s.Row(i)[ci], s.Row(j)[ci])
				}
			}
		}
	}
}

// TestBinnedCodesMatchMidpoints: binned group ids agree with the HashKeys
// of the SnapVals-style midpoint values.
func TestBinnedCodesMatchMidpoints(t *testing.T) {
	tbl := New("t", snapSchema)
	for _, y := range []float64{0.01, 0.49, 0.5, 0.99, -0.3, 7.77, 0.26} {
		if err := tbl.Append([]value.Value{value.Text("s"), value.Int(int64(y * 10)), value.Float(y), value.Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}
	s := tbl.Snapshot()
	const w = 0.5
	ids, _ := s.GroupIDs([]int{2}, []float64{w}, s.AllRows())
	mid := func(i int) string {
		return value.Float((math.Floor(s.Col(2).Floats[i]/w) + 0.5) * w).HashKey()
	}
	for i := 0; i < s.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			if (ids[i] == ids[j]) != (mid(i) == mid(j)) {
				t.Errorf("rows %d,%d (%g vs %g): binned ids disagree with midpoints",
					i, j, s.Col(2).Floats[i], s.Col(2).Floats[j])
			}
		}
	}
}

// TestSnapshotSafeAgainstConcurrentNullAppend: appending a NULL row must
// not mutate bitmap words a live snapshot reads (run under -race).
func TestSnapshotSafeAgainstConcurrentNullAppend(t *testing.T) {
	tbl := snapFixture(t) // rows 1-2 already carry NULLs in-word
	s := tbl.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := tbl.Append([]value.Value{value.Null(), value.Null(), value.Null(), value.Null()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		for ci := 0; ci < snapSchema.Len(); ci++ {
			col := s.Col(ci)
			for r := 0; r < s.Len(); r++ {
				if col.Null(r) != s.Row(r)[ci].IsNull() {
					t.Fatalf("snapshot null flag drifted at row %d col %d", r, ci)
				}
			}
		}
	}
	<-done
}
