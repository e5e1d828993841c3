package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"mosaic/internal/value"
)

// randomCell draws a value for a column of kind k: mostly values that store
// (NULL, NaN, ±Inf, −0, INT↔FLOAT coercions, repeated and new TEXT) and,
// when bad, one that cannot coerce.
func randomCell(rng *rand.Rand, k value.Kind, bad bool, fresh *int) value.Value {
	if bad {
		if k == value.KindText {
			return value.Int(7)
		}
		return value.Text("bad")
	}
	if rng.Intn(8) == 0 {
		return value.Null()
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 1e300}
	switch k {
	case value.KindInt:
		if rng.Intn(4) == 0 {
			return value.Float(floats[rng.Intn(len(floats))])
		}
		return value.Int(rng.Int63n(2000) - 1000)
	case value.KindFloat:
		switch rng.Intn(3) {
		case 0:
			return value.Int(rng.Int63n(2000) - 1000)
		case 1:
			return value.Float(floats[rng.Intn(len(floats))])
		}
		return value.Float(rng.NormFloat64())
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 0)
	default:
		if rng.Intn(3) == 0 {
			*fresh++
			return value.Text(fmt.Sprintf("new%d", *fresh))
		}
		return value.Text(fmt.Sprintf("t%d", rng.Intn(5)))
	}
}

// randomBatch draws n rows for snapSchema; with a bad row, one row at a
// random position fails coercion or has the wrong width. It returns that
// row's index, or -1.
func randomBatch(rng *rand.Rand, n int, withBad bool, fresh *int) ([][]value.Value, int) {
	badRow := -1
	if withBad && n > 0 {
		badRow = rng.Intn(n)
	}
	nc := snapSchema.Len()
	rows := make([][]value.Value, n)
	for r := range rows {
		badCol := -1
		if r == badRow {
			badCol = rng.Intn(nc + 2) // nc: a short row, nc+1: a long one
		}
		for c := 0; c < nc; c++ {
			rows[r] = append(rows[r], randomCell(rng, snapSchema.At(c).Kind, c == badCol, fresh))
		}
		switch badCol {
		case nc:
			rows[r] = rows[r][:nc-1]
		case nc + 1:
			rows[r] = append(rows[r], value.Int(1))
		}
	}
	return rows, badRow
}

// sameStorage compares two tables' stored state bit for bit: every typed
// payload (floats by Float64bits, so NaN and −0 count), null bitmaps,
// dictionary codes and strings, and weights.
func sameStorage(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", what, got.Len(), want.Len())
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for ci := range want.cols {
		g, w := &got.cols[ci], &want.cols[ci]
		if !reflect.DeepEqual(g.Ints, w.Ints) || !reflect.DeepEqual(bits(g.Floats), bits(w.Floats)) ||
			!reflect.DeepEqual(g.Bools, w.Bools) || !reflect.DeepEqual(g.Codes, w.Codes) ||
			!reflect.DeepEqual(g.Nulls, w.Nulls) {
			t.Fatalf("%s: column %d differs:\n got %+v\nwant %+v", what, ci, *g, *w)
		}
	}
	if !reflect.DeepEqual(bits(got.wts), bits(want.wts)) {
		t.Fatalf("%s: weights differ", what)
	}
	if !reflect.DeepEqual(got.dict.Strings(), want.dict.Strings()) {
		t.Fatalf("%s: dictionary %v, want %v", what, got.dict.Strings(), want.dict.Strings())
	}
}

// TestBulkAppendMatchesPerRowAppend: BulkAppendWeighted leaves exactly the
// state a loop of AppendWeighted would — the same cells, NULLs, dictionary
// codes in the same first-appearance order, weights and error, a negative
// weight's too — and moves Version once when it stored a row, cloning new
// strings or not.
func TestBulkAppendMatchesPerRowAppend(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, bulk := New("t", snapSchema), New("t", snapSchema)
		fresh := 0
		for b := 0; b < 4; b++ {
			rows, badRow := randomBatch(rng, rng.Intn(200), rng.Intn(2) == 0, &fresh)
			var wts []float64 // nil: every weight 1
			if rng.Intn(2) == 0 {
				wts = make([]float64, len(rows))
				for i := range wts {
					wts[i] = float64(rng.Intn(5)) / 2
				}
				if k := pickRow(rng, len(rows)); k >= 0 {
					wts[k] = -1
					if badRow < 0 || k < badRow {
						badRow = k
					}
				}
			}
			var refErr error
			for i, r := range rows {
				w := 1.0
				if wts != nil {
					w = wts[i]
				}
				if refErr = ref.AppendWeighted(r, w); refErr != nil {
					break
				}
			}
			before := bulk.Version()
			err := bulk.BulkAppendWeighted(rows, wts, rng.Intn(2) == 0)
			what := fmt.Sprintf("seed %d batch %d (%d rows, bad row %d)", seed, b, len(rows), badRow)
			switch {
			case (err == nil) != (refErr == nil):
				t.Fatalf("%s: BulkAppend error %v, per-row error %v", what, err, refErr)
			case err != nil:
				var be *BatchError
				if !errors.As(err, &be) || be.Row != badRow || err.Error() != refErr.Error() {
					t.Fatalf("%s: BulkAppend error %#v (%v), want row %d: %v", what, err, err, badRow, refErr)
				}
			}
			sameStorage(t, what, bulk, ref)
			stored := len(rows)
			if badRow >= 0 {
				stored = badRow
			}
			if moved := bulk.Version() > before; moved != (stored > 0) {
				t.Fatalf("%s: stored %d rows, version %d → %d", what, stored, before, bulk.Version())
			}
		}
	}
}

// TestBulkAppendSharedDictionary: a clone shares its source's dictionary;
// appends to either intern into it, in the order they ran.
func TestBulkAppendSharedDictionary(t *testing.T) {
	src := New("s", snapSchema)
	row := func(s string) []value.Value {
		return []value.Value{value.Text(s), value.Int(1), value.Float(1), value.Bool(true)}
	}
	if err := src.BulkAppend([][]value.Value{row("a"), row("b")}); err != nil {
		t.Fatal(err)
	}
	clone := src.Clone("c")
	if err := clone.BulkAppend([][]value.Value{row("c"), row("a")}); err != nil {
		t.Fatal(err)
	}
	if err := src.Append(row("d")); err != nil {
		t.Fatal(err)
	}
	if got, want := src.dict.Strings(), []string{"a", "b", "c", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("dictionary %v, want %v", got, want)
	}
	if got := clone.Snapshot().Col(0).Codes; !reflect.DeepEqual(got, []uint32{0, 1, 2, 0}) {
		t.Errorf("clone codes %v", got)
	}
}

// TestBulkAppendClonesNewStringsOnly: with clone set, a TEXT value new to
// the dictionary is stored as a copy that shares no memory with the row it
// came in, and a value the dictionary holds costs no copy; without it, the
// dictionary keeps the caller's string.
func TestBulkAppendClonesNewStringsOnly(t *testing.T) {
	buf := "alpha beta"
	row := func(s string) []value.Value {
		return []value.Value{value.Text(s), value.Int(1), value.Float(1), value.Bool(true)}
	}
	var allocs [2]float64 // appending known strings, without and with clone
	for ci, clone := range []bool{false, true} {
		tbl := New("t", snapSchema)
		if err := tbl.BulkAppendWeighted([][]value.Value{row(buf[:5]), row(buf[6:]), row(buf[:5])}, nil, clone); err != nil {
			t.Fatal(err)
		}
		strs := tbl.dict.Strings()
		if !reflect.DeepEqual(strs, []string{"alpha", "beta"}) {
			t.Fatalf("clone=%v: dictionary %q", clone, strs)
		}
		aliased := unsafe.StringData(strs[0]) == unsafe.StringData(buf) || unsafe.StringData(strs[1]) == unsafe.StringData(buf[6:])
		if aliased == clone {
			t.Errorf("clone=%v: dictionary strings alias the input: %v", clone, aliased)
		}
		known := [][]value.Value{row(buf[:5]), row(buf[6:])}
		allocs[ci] = testing.AllocsPerRun(20, func() {
			if err := tbl.BulkAppendWeighted(known, nil, clone); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1] != allocs[0] {
		t.Errorf("appending known strings allocates %v times with clone, %v without", allocs[1], allocs[0])
	}
}

// pickRow returns a random row index of n, or -1 (also when n is 0).
func pickRow(rng *rand.Rand, n int) int {
	if n == 0 || rng.Intn(3) != 0 {
		return -1
	}
	return rng.Intn(n)
}
