package table

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

// groupSchema holds one column per kind, plus xf, a FLOAT copy of x.
var groupSchema = schema.MustNew(
	schema.Attribute{Name: "c", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindInt},
	schema.Attribute{Name: "y", Kind: value.KindFloat},
	schema.Attribute{Name: "b", Kind: value.KindBool},
	schema.Attribute{Name: "xf", Kind: value.KindFloat},
)

// groupFixture draws n rows from pools that hold every identity edge case:
// NULLs, NaNs with different payloads and signs, -0 and +0, ±Inf, an INT
// equal to a FLOAT (3 and 3.0), two INTs that one float64 cannot tell
// apart (2^53 and 2^53+1), and values on both sides of the bin edges.
func groupFixture(t *testing.T, n int) *Table {
	t.Helper()
	texts := []value.Value{value.Null(), value.Text("a"), value.Text("b"), value.Text(""), value.Text("A")}
	ints := []value.Value{value.Null(), value.Int(0), value.Int(1), value.Int(3), value.Int(-7),
		value.Int(1 << 53), value.Int(1<<53 + 1), value.Int(25), value.Int(26), value.Int(-1)}
	floats := []value.Value{value.Null(), value.Float(math.NaN()),
		value.Float(math.Float64frombits(0x7ff8000000000001)), value.Float(math.Float64frombits(0xfff8000000000000)),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(3), value.Float(1 << 53),
		value.Float(0.49), value.Float(0.5), value.Float(0.51), value.Float(-0.3),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1))}
	bools := []value.Value{value.Null(), value.Bool(true), value.Bool(false)}
	rng := rand.New(rand.NewSource(7))
	rows := make([][]value.Value, n)
	for i := range rows {
		x := ints[rng.Intn(len(ints))]
		xf := x
		if !x.IsNull() {
			xf = value.Float(float64(x.AsInt()))
		}
		rows[i] = []value.Value{texts[rng.Intn(len(texts))], x, floats[rng.Intn(len(floats))], bools[rng.Intn(len(bools))], xf}
	}
	tbl := New("t", groupSchema)
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// identityKey is the oracle: the HashKeys of a row's values in cols, a
// numeric value snapped to its bin midpoint first where its width is set.
func identityKey(s *Snapshot, r int32, cols []int, widths []float64) string {
	var b strings.Builder
	for i, c := range cols {
		v := s.Value(int(r), c)
		if w := widths[i]; w != 0 && !v.IsNull() && v.Numeric() {
			f, _ := v.Float64()
			v = value.Float((math.Floor(f/w) + 0.5) * w)
		}
		b.WriteString(v.HashKey())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// checkGroupIDs holds GroupIDs to the oracle: ids partition rows exactly as
// identityKey does, ids are numbered in first-appearance order, and
// first[g] is the row where g first appears.
func checkGroupIDs(t *testing.T, what string, s *Snapshot, cols []int, widths []float64, rows []int32) {
	t.Helper()
	var ws []float64 // nil when no column is binned, as GROUP BY passes it
	if slices.ContainsFunc(widths, func(w float64) bool { return w != 0 }) {
		ws = widths
	}
	ids, first := s.GroupIDs(cols, ws, rows)
	if len(ids) != len(rows) {
		t.Fatalf("%s: %d ids for %d rows", what, len(ids), len(rows))
	}
	idOf := map[string]int32{}
	for k, r := range rows {
		key := identityKey(s, r, cols, widths)
		id, seen := idOf[key]
		if !seen {
			id = int32(len(idOf))
			idOf[key] = id
		}
		if ids[k] != id {
			t.Fatalf("%s: row %d (key %q) has id %d, want %d", what, r, key, ids[k], id)
		}
		if !seen && (int(id) >= len(first) || first[id] != r) {
			t.Fatalf("%s: group %d first appears at row %d, first says otherwise", what, id, r)
		}
	}
	if len(first) != len(idOf) {
		t.Fatalf("%s: %d groups, oracle has %d", what, len(first), len(idOf))
	}
}

// TestGroupIDsMatchHashKeys: GroupIDs is the one place column values turn
// into identity ids, for GROUP BY and DISTINCT (no widths), marginal cells
// and IPF cells (bin widths). Every one-, two- and three-column key over
// every kind, binned and exact, over all rows, a subset and a SliceRange
// snapshot, must group exactly as value.HashKey does.
func TestGroupIDsMatchHashKeys(t *testing.T) {
	tbl := groupFixture(t, 300)
	s := tbl.Snapshot()
	binOf := []float64{1, 4, 0.5, 1, 0.5} // by column; TEXT and BOOL ignore theirs
	subset := []int32{}
	for r := int32(0); r < int32(s.Len()); r += 3 {
		subset = append(subset, r, r+1)
	}
	views := []struct {
		name string
		snap *Snapshot
		rows []int32
	}{
		{"all", s, s.AllRows()},
		{"subset", s, subset},
		{"slice", s.SliceRange(64, 250), s.SliceRange(64, 250).AllRows()},
	}
	ncol := groupSchema.Len()
	var keys [][]int
	for a := 0; a < ncol; a++ {
		keys = append(keys, []int{a})
		for b := 0; b < ncol; b++ {
			if b != a {
				keys = append(keys, []int{a, b}, []int{a, b, (a + b + 1) % ncol})
			}
		}
	}
	for _, v := range views {
		for _, cols := range keys {
			for binned := 0; binned < 2; binned++ {
				widths := make([]float64, len(cols))
				for i, c := range cols {
					widths[i] = float64(binned) * binOf[c]
				}
				checkGroupIDs(t, v.name, v.snap, cols, widths, v.rows)
			}
		}
	}
	// A binned INT column groups like a FLOAT copy of it. Unbinned, HashKey
	// keeps an INT that float64 cannot hold apart: 2^53 and 2^53+1 are two
	// groups of the INT column and one of its FLOAT copy.
	for _, w := range []float64{4, 0.5} {
		gi, fi := s.GroupIDs([]int{1}, []float64{w}, s.AllRows())
		gf, ff := s.GroupIDs([]int{4}, []float64{w}, s.AllRows())
		if !slices.Equal(gi, gf) || !slices.Equal(fi, ff) {
			t.Errorf("width %g: INT column groups differ from its FLOAT copy", w)
		}
	}
	if _, fi := s.GroupIDs([]int{1}, nil, s.AllRows()); len(fi) != 10 {
		t.Errorf("INT column has %d groups, want 10: 2^53 and 2^53+1 apart", len(fi))
	}
	if _, ff := s.GroupIDs([]int{4}, nil, s.AllRows()); len(ff) != 9 {
		t.Errorf("its FLOAT copy has %d groups, want 9: 2^53 and 2^53+1 as one", len(ff))
	}
}
