package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/expr"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// The filter kernels turn each row's outcome into a table index instead of
// branching on it: comparisons index cmpLUT by the row's order, NOT, AND and
// OR index notTable, andTable and orTable by the arms' states, and
// ternSelection advances its output slot by the row's truth. The tests in
// this file pin each table against its reference on every input it can see.

var ternNames = [4]string{"FALSE", "TRUE", "NULL", "ERROR"}

// armValues holds, for each tern state s, the INT value whose arm
// `1 / col > 0` evaluates to s: -1 is FALSE, 1 TRUE, NULL NULL, and 0
// divides by zero.
var armValues = [4]value.Value{value.Int(-1), value.Int(1), value.Null(), value.Int(0)}

// interpTern is the row interpreter's state of e at row i of snap.
func interpTern(t *testing.T, snap *table.Snapshot, env *rowEnv, e expr.Expr, i int) int8 {
	t.Helper()
	v, err := e.Eval(env.at(snap, i, snap.Weight(i)))
	switch {
	case err != nil:
		if err.Error() != "expr: division by zero" {
			t.Fatalf("%s at row %d: %v", e, i, err)
		}
		return ternErr
	case v.IsNull():
		return ternNull
	default:
		return ternOf(v.AsBool())
	}
}

// kernelTern is the compiled kernel's truth vector of where over snap; the
// expression must compile.
func kernelTern(t *testing.T, snap *table.Snapshot, where expr.Expr) []int8 {
	t.Helper()
	c := &kernelCompiler{ctx: t.Context(), snap: snap, weights: snap.Weights(), n: snap.Len(), workers: 1}
	tern := c.tern(c.compile(where))
	if c.err != nil {
		t.Fatal(c.err)
	}
	return tern
}

// TestLogicTablesMatchInterpreter: AND and OR over all 16 (left, right)
// state pairs, and NOT over all 4 states, give the row interpreter's state
// — its short-circuit of a right-arm error behind a FALSE (AND) or TRUE
// (OR) left arm included. Row 4l+r of the table holds the values whose arms
// have states l and r.
func TestLogicTablesMatchInterpreter(t *testing.T) {
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "a", Kind: value.KindInt},
		schema.Attribute{Name: "b", Kind: value.KindInt},
	))
	for l := range armValues {
		for r := range armValues {
			if err := tbl.Append([]value.Value{armValues[l], armValues[r]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := tbl.Snapshot()
	env := makeEnv(snap.Schema())
	for _, src := range []string{
		"1 / a > 0", "1 / b > 0",
		"1 / a > 0 AND 1 / b > 0", "1 / a > 0 OR 1 / b > 0", "NOT (1 / a > 0)",
		"NOT (1 / a > 0 AND 1 / b > 0)", "NOT (1 / a > 0 OR 1 / b > 0)",
	} {
		where, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		got := kernelTern(t, snap, where)
		for i := range got {
			want := interpTern(t, snap, env, where, i)
			if got[i] != want {
				t.Errorf("%s with a=%s, b=%s: kernel %s, interpreter %s",
					src, ternNames[i/4], ternNames[i%4], ternNames[got[i]], ternNames[want])
			}
		}
	}
	// The arms produce every state on both sides, so the grid above covered
	// all 16 pairs.
	for i, arm := range []string{"1 / a > 0", "1 / b > 0"} {
		where, _ := sql.ParseExpr(arm)
		for row, got := range kernelTern(t, snap, where) {
			if want := int8([]int{row / 4, row % 4}[i]); got != want {
				t.Fatalf("%s at row %d is %s, want %s", arm, row, ternNames[got], ternNames[want])
			}
		}
	}
}

// TestCmpKernelsMatchCompare: cmpScalar and cmpRows give value.Compare's
// order, through every operator's table, on the values a branch-free
// order can get wrong: NaN (equal to NaN, above +Inf) with either sign bit,
// ±0, ±Inf, the int64 extremes and their nearest float64s, in every
// INT/FLOAT pairing.
func TestCmpKernelsMatchCompare(t *testing.T) {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.NaN(), math.Float64frombits(0xfff8000000000000), math.Inf(-1), -math.MaxFloat64, -9.223372036854775808e18, -1.5,
		math.Copysign(0, -1), 0, 5e-324, 1, 9.223372036854775807e18, math.MaxFloat64, math.Inf(1)}
	for _, op := range []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe} {
		checkCmpScalar(t, op, ints, ints)
		checkCmpScalar(t, op, ints, floats)
		checkCmpScalar(t, op, floats, floats)
		checkCmpRows[int64](t, op, ints, ints)
		checkCmpRows[float64](t, op, ints, floats)
		checkCmpRows[float64](t, op, floats, ints)
		checkCmpRows[float64](t, op, floats, floats)
	}
}

// checkCmpScalar compares every x against each y with cmpScalar.
func checkCmpScalar[X, C int64 | float64](t *testing.T, op expr.BinOp, xs []X, ys []C) {
	t.Helper()
	for _, y := range ys {
		dst := make([]int8, len(xs))
		cmpScalar(dst, xs, y, cmpLUT(op))
		bcast := make([]C, len(xs))
		for i := range bcast {
			bcast[i] = y
		}
		checkCmp(t, "cmpScalar", op, dst, numValues(xs), numValues(bcast))
	}
}

// checkCmpRows compares every pair of xs × ys with cmpRows in type C.
func checkCmpRows[C, X, Y int64 | float64](t *testing.T, op expr.BinOp, xs []X, ys []Y) {
	t.Helper()
	var a []X
	var b []Y
	for _, x := range xs {
		for _, y := range ys {
			a, b = append(a, x), append(b, y)
		}
	}
	dst := make([]int8, len(a))
	cmpRows[C](dst, a, b, cmpLUT(op))
	checkCmp(t, "cmpRows", op, dst, numValues(a), numValues(b))
}

// checkCmp holds got[i] to op's outcome of value.Compare(xs[i], ys[i]).
func checkCmp(t *testing.T, kernel string, op expr.BinOp, got []int8, xs, ys []value.Value) {
	t.Helper()
	lut := cmpLUT(op)
	for i, g := range got {
		if want := lut[value.Compare(xs[i], ys[i])+1]; g != want {
			t.Errorf("%s: %s %s %s (%s, %s) is %s, want %s", kernel, xs[i], op, ys[i],
				xs[i].Kind(), ys[i].Kind(), ternNames[g], ternNames[want])
		}
	}
}

// numValues wraps INT or FLOAT payloads as values.
func numValues[T int64 | float64](xs []T) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		switch x := any(x).(type) {
		case int64:
			out[i] = value.Int(x)
		case float64:
			out[i] = value.Float(x)
		}
	}
	return out
}

// refSelection is the selection of a truth vector by one append loop: the
// ternTrue rows before the first ternErr row, and whether there is one.
func refSelection(tern []int8) (sel []int32, failed bool) {
	sel = []int32{}
	for i, v := range tern {
		if v == ternErr {
			return sel, true
		}
		if v == ternTrue {
			sel = append(sel, int32(i))
		}
	}
	return sel, false
}

// TestTernSelectionMatchesAppendLoop: at every worker count, ternSelection
// equals the append loop on truth vectors with NULL rows, an all-FALSE
// morsel, an error at row morselRows exactly (the first row of the second
// morsel), errors late in a morsel and in a short last morsel, and no rows.
func TestTernSelectionMatchesAppendLoop(t *testing.T) {
	const n = 3*morselRows + 123 // the last morsel holds 123 rows
	rng := rand.New(rand.NewSource(7))
	base := make([]int8, n)
	for i := range base {
		base[i] = []int8{ternFalse, ternTrue, ternNull}[rng.Intn(3)]
	}
	for i := morselRows; i < 2*morselRows; i++ {
		base[i] = ternFalse // morsel 1 keeps nothing
	}
	allTrue := make([]int8, n)
	for i := range allTrue {
		allTrue[i] = ternTrue
	}
	for _, tc := range []struct {
		name string
		errs []int
		tern []int8
	}{
		{name: "no error", tern: base},
		{name: "error at morselRows", errs: []int{morselRows}, tern: base},
		{name: "error at morselRows with a later one", errs: []int{morselRows, 3*morselRows + 5}, tern: base},
		{name: "error at the last row of morsel 0", errs: []int{morselRows - 1}, tern: base},
		{name: "error in the short last morsel", errs: []int{3*morselRows + 100}, tern: base},
		{name: "error at the last row", errs: []int{n - 1}, tern: base},
		{name: "all FALSE", tern: make([]int8, n)},
		{name: "all TRUE", tern: allTrue},
		{name: "one short morsel", tern: base[:123]},
		{name: "no rows", tern: []int8{}},
	} {
		tern := slices.Clone(tc.tern)
		for _, r := range tc.errs {
			tern[r] = ternErr
		}
		want, wantFailed := refSelection(tern)
		for _, w := range sweepWorkers {
			sel, failed, err := ternSelection(t.Context(), tern, w)
			if err != nil || failed != wantFailed || !slices.Equal(sel, want) {
				t.Errorf("%s, %d workers: %d rows, failed %v, err %v; want %d rows, failed %v",
					tc.name, w, len(sel), failed, err, len(want), wantFailed)
			}
			if cap(sel) != len(sel) {
				t.Errorf("%s, %d workers: selection has capacity %d for %d rows; want it exact", tc.name, w, cap(sel), len(sel))
			}
		}
	}
}
