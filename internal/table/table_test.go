package table

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

var testSchema = schema.MustNew(
	schema.Attribute{Name: "a", Kind: value.KindInt},
	schema.Attribute{Name: "b", Kind: value.KindFloat},
)

func fill(t *testing.T, tbl *Table, rows [][2]float64) {
	t.Helper()
	for _, r := range rows {
		if err := tbl.Append([]value.Value{value.Int(int64(r[0])), value.Float(r[1])}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestAppendAndScan(t *testing.T) {
	tbl := New("t", testSchema)
	fill(t, tbl, [][2]float64{{1, 1.5}, {2, 2.5}, {3, 3.5}})
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	var seen int
	tbl.Scan(func(row []value.Value, w float64) bool {
		if w != 1 {
			t.Errorf("default weight %g, want 1", w)
		}
		seen++
		return true
	})
	if seen != 3 {
		t.Errorf("scanned %d rows", seen)
	}
	// Early stop.
	seen = 0
	tbl.Scan(func([]value.Value, float64) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("early stop scanned %d", seen)
	}
}

func TestAppendValidates(t *testing.T) {
	tbl := New("t", testSchema)
	if err := tbl.Append([]value.Value{value.Text("no"), value.Float(1)}); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := tbl.Append([]value.Value{value.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	err := tbl.AppendWeighted([]value.Value{value.Int(1), value.Float(1)}, -2)
	if err == nil {
		t.Fatal("negative weight should fail")
	}
	// AppendWeighted is a one-row BulkAppendWeighted, but its callers see
	// the row's own error, not the batch's.
	var be *BatchError
	if errors.As(err, &be) || err.Error() != "table t: negative weight -2" {
		t.Errorf("AppendWeighted error %#v (%v), want the row's own error", err, err)
	}
}

// TestAppendIsAllOrNothing: a row that fails coercion at attribute k must
// leave columns 0…k−1, the null bitmaps, the dictionary and the weights as
// they were — alone, and in the middle of a BulkAppend.
func TestAppendIsAllOrNothing(t *testing.T) {
	tbl := New("t", snapSchema)
	good := []value.Value{value.Text("red"), value.Int(1), value.Float(0.5), value.Bool(true)}
	if err := tbl.Append(good); err != nil {
		t.Fatal(err)
	}
	aligned := func(want int) {
		t.Helper()
		s := tbl.Snapshot()
		if s.Len() != want || tbl.Len() != want {
			t.Fatalf("Len = %d / %d, want %d", tbl.Len(), s.Len(), want)
		}
		got := []int{len(s.Col(0).Codes), len(s.Col(1).Ints), len(s.Col(2).Floats), len(s.Col(3).Bools), len(s.Weights())}
		for ci, l := range got {
			if l != want {
				t.Errorf("column %d holds %d values for %d rows (%v)", ci, l, want, got)
			}
		}
		for ci := 0; ci < 2; ci++ {
			if s.Col(ci).HasNulls() {
				t.Errorf("column %d gained a NULL from a rejected row", ci)
			}
		}
		if _, ok := s.DictLookup("never"); ok {
			t.Error("a rejected row interned its TEXT value")
		}
	}
	// Fails at attribute 2 (TEXT into FLOAT) and at attribute 3, after a
	// fresh string and a NULL that must not land.
	for _, bad := range [][]value.Value{
		{value.Text("never"), value.Null(), value.Text("x"), value.Bool(true)},
		{value.Null(), value.Int(2), value.Float(1), value.Int(1)},
	} {
		if err := tbl.Append(bad); err == nil {
			t.Fatalf("row %v should fail", bad)
		}
		aligned(1)
	}
	err := tbl.BulkAppend([][]value.Value{good, good, {value.Text("never"), value.Int(3), value.Bool(false), value.Null()}, good})
	if err == nil {
		t.Fatal("bulk append with a bad row should fail")
	}
	aligned(3) // the rows before the bad one stay, nothing of it or after it
	if err := tbl.Append([]value.Value{value.Text("blue"), value.Null(), value.Int(4), value.Bool(false)}); err != nil {
		t.Fatal(err)
	}
	if row := tbl.Row(3); row[0].AsText() != "blue" || !row[1].IsNull() || row[2].AsFloat() != 4 || row[3].AsBool() {
		t.Errorf("row after the rejected ones reads %v", row)
	}
}

func TestWeightsLifecycle(t *testing.T) {
	tbl := New("t", testSchema)
	fill(t, tbl, [][2]float64{{1, 1}, {2, 2}})
	if err := tbl.SetWeights([]float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if w := tbl.Weights(); w[0] != 2 || w[1] != 3 {
		t.Errorf("Weights = %v, want [2 3]", w)
	}
	if err := tbl.SetWeights([]float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := tbl.SetWeights([]float64{1, -1}); err == nil {
		t.Error("negative bulk weight should fail")
	}
	// Weights() must be a copy.
	w := tbl.Weights()
	w[0] = 99
	if tbl.Weights()[0] == 99 {
		t.Error("Weights() must return a copy")
	}
}

func TestColumnExtraction(t *testing.T) {
	tbl := New("t", testSchema)
	fill(t, tbl, [][2]float64{{1, 1.5}, {2, 2.5}})
	fc, err := tbl.FloatColumn("a")
	if err != nil {
		t.Fatal(err)
	}
	if fc[0] != 1 || fc[1] != 2 {
		t.Errorf("FloatColumn(a) = %v", fc)
	}
	if _, err := tbl.FloatColumn("zz"); err == nil {
		t.Error("missing column should fail")
	}
}

func TestFloatColumnRejectsText(t *testing.T) {
	sc := schema.MustNew(schema.Attribute{Name: "s", Kind: value.KindText})
	tbl := New("t", sc)
	if err := tbl.Append([]value.Value{value.Text("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.FloatColumn("s"); err == nil {
		t.Error("FloatColumn over text should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tbl := New("t", testSchema)
	fill(t, tbl, [][2]float64{{1, 1}})
	if err := tbl.SetWeights([]float64{4}); err != nil {
		t.Fatal(err)
	}
	cp := tbl.Clone("copy")
	if cp.Len() != 1 || cp.Weights()[0] != 4 || cp.Name() != "copy" {
		t.Fatalf("clone mismatch")
	}
	// Mutating the clone must not affect the original.
	if err := cp.SetWeights([]float64{9}); err != nil {
		t.Fatal(err)
	}
	if tbl.Weights()[0] != 4 {
		t.Error("clone shares weights with original")
	}
	if err := cp.Append([]value.Value{value.Int(2), value.Float(2)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Error("clone shares rows with original")
	}
}

func TestTotalWeightLinearProperty(t *testing.T) {
	// Property: the table's total weight, the sum of Weights(), equals the
	// sum of the weights SetWeights installed.
	f := func(ws []float64) bool {
		tbl := New("t", testSchema)
		var want float64
		clean := make([]float64, 0, len(ws))
		for i, w := range ws {
			w = math.Abs(w)
			if math.IsInf(w, 0) || math.IsNaN(w) || w > 1e12 {
				w = 1
			}
			if err := tbl.Append([]value.Value{value.Int(int64(i)), value.Float(0)}); err != nil {
				return false
			}
			clean = append(clean, w)
			want += w
		}
		if err := tbl.SetWeights(clean); err != nil {
			return false
		}
		var got float64
		for _, w := range tbl.Weights() {
			got += w
		}
		return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBulkAppend(t *testing.T) {
	tbl := New("t", testSchema)
	rows := [][]value.Value{
		{value.Int(1), value.Float(1)},
		{value.Int(2), value.Float(2)},
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	bad := [][]value.Value{{value.Text("x"), value.Float(1)}}
	if err := tbl.BulkAppend(bad); err == nil {
		t.Error("bad bulk row should fail")
	}
}

func TestConcurrentReaders(t *testing.T) {
	tbl := New("t", testSchema)
	fill(t, tbl, [][2]float64{{1, 1}, {2, 2}, {3, 3}})
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- true }()
			for i := 0; i < 200; i++ {
				tbl.Scan(func(row []value.Value, w float64) bool { return true })
				_ = tbl.Weights()
				_, _ = tbl.FloatColumn("a")
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestVersionAdvancesOnEveryMutation: derived state is valid while (table,
// Version) stands, so every call that changes rows or weights must move it —
// and a call that fails before changing anything, or only reads, must not.
func TestVersionAdvancesOnEveryMutation(t *testing.T) {
	tbl := New("t", testSchema)
	last := tbl.Version()
	moved := func(what string, want bool) {
		t.Helper()
		v := tbl.Version()
		if (v > last) != want {
			t.Errorf("%s: version %d → %d, moved should be %v", what, last, v, want)
		}
		last = v
	}
	fill(t, tbl, [][2]float64{{1, 1}, {2, 2}})
	moved("Append", true)
	if err := tbl.Append([]value.Value{value.Text("x"), value.Float(1)}); err == nil {
		t.Fatal("bad row should fail")
	}
	moved("failed Append", false)
	if err := tbl.AppendWeighted([]value.Value{value.Int(3), value.Float(3)}, 2); err != nil {
		t.Fatal(err)
	}
	moved("AppendWeighted", true)
	if err := tbl.AppendWeighted([]value.Value{value.Int(4), value.Float(4)}, -1); err == nil {
		t.Fatal("negative weight should fail")
	}
	moved("failed AppendWeighted", false)
	if err := tbl.SetWeights([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	moved("SetWeights", true)
	if err := tbl.SetWeights([]float64{1}); err == nil {
		t.Fatal("short weight vector should fail")
	}
	if err := tbl.SetWeights([]float64{9, 9, -1}); err == nil || tbl.Weights()[0] != 1 {
		t.Fatalf("a vector with a negative entry should fail whole: err %v, weight[0] %g", err, tbl.Weights()[0])
	}
	moved("failed SetWeights", false)
	if err := tbl.BulkAppend([][]value.Value{{value.Int(5), value.Float(5)}}); err != nil {
		t.Fatal(err)
	}
	moved("BulkAppend", true)
	_ = tbl.Snapshot()
	_ = tbl.Weights()
	moved("reads", false)
}
