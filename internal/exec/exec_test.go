package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

var sc = schema.MustNew(
	schema.Attribute{Name: "c", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindInt},
	schema.Attribute{Name: "y", Kind: value.KindFloat},
)

func mkTable(t *testing.T, rows []struct {
	c string
	x int64
	y float64
	w float64
}) *table.Table {
	t.Helper()
	tbl := table.New("t", sc)
	for _, r := range rows {
		if err := tbl.AppendWeighted([]value.Value{
			value.Text(r.c), value.Int(r.x), value.Float(r.y),
		}, r.w); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func sampleData(t *testing.T) *table.Table {
	return mkTable(t, []struct {
		c string
		x int64
		y float64
		w float64
	}{
		{"a", 1, 10, 2},
		{"a", 2, 20, 3},
		{"b", 3, 30, 1},
		{"b", 4, 40, 4},
	})
}

func q(t *testing.T, src string) *sql.Select {
	t.Helper()
	sel, err := sql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return sel
}

func TestProjectionWithWhere(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT x, y FROM t WHERE x > 2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 3 || res.Rows[1][0].AsInt() != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "x" || res.Columns[1] != "y" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestStarProjection(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT * FROM t LIMIT 1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || len(res.Rows) != 1 || len(res.Rows[0]) != 3 {
		t.Errorf("star projection: %v %v", res.Columns, res.Rows)
	}
}

func TestUnweightedAggregates(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM t"), Options{Weighted: false})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if got, _ := row[0].Float64(); got != 4 {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if got, _ := row[1].Float64(); got != 10 {
		t.Errorf("SUM(x) = %v", row[1])
	}
	if got, _ := row[2].Float64(); got != 25 {
		t.Errorf("AVG(y) = %v", row[2])
	}
	if row[3].AsInt() != 1 {
		t.Errorf("MIN(x) = %v", row[3])
	}
	if got, _ := row[4].Float64(); got != 40 {
		t.Errorf("MAX(y) = %v", row[4])
	}
}

func TestWeightedAggregates(t *testing.T) {
	// Weights 2,3,1,4: the paper's rewriting COUNT(*) → SUM(weight).
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT COUNT(*), SUM(x), AVG(x) FROM t"), Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if got, _ := row[0].Float64(); got != 10 {
		t.Errorf("weighted COUNT(*) = %v, want 10", row[0])
	}
	// SUM(x) = 2·1 + 3·2 + 1·3 + 4·4 = 27
	if got, _ := row[1].Float64(); got != 27 {
		t.Errorf("weighted SUM(x) = %v, want 27", row[1])
	}
	// AVG(x) = 27 / 10
	if got, _ := row[2].Float64(); math.Abs(got-2.7) > 1e-12 {
		t.Errorf("weighted AVG(x) = %v, want 2.7", row[2])
	}
}

func TestWeightOverride(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT COUNT(*) FROM t"), Options{
		Weighted:       true,
		WeightOverride: []float64{1, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].Float64(); got != 4 {
		t.Errorf("override COUNT(*) = %v, want 4", res.Rows[0][0])
	}
	if _, err := Run(tbl, q(t, "SELECT COUNT(*) FROM t"), Options{WeightOverride: []float64{1}}); err == nil {
		t.Error("length-mismatched override should fail")
	}
}

func TestGroupBy(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT c, COUNT(*), AVG(x) FROM t GROUP BY c ORDER BY c"), Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Group a: weights 2+3=5, avg x = (2·1+3·2)/5 = 1.6
	if res.Rows[0][0].AsText() != "a" {
		t.Errorf("group order: %v", res.Rows)
	}
	if got, _ := res.Rows[0][1].Float64(); got != 5 {
		t.Errorf("group a count = %v", res.Rows[0][1])
	}
	if got, _ := res.Rows[0][2].Float64(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("group a avg = %v", res.Rows[0][2])
	}
}

func TestGroupByValidatesItems(t *testing.T) {
	tbl := sampleData(t)
	if _, err := Run(tbl, q(t, "SELECT x, COUNT(*) FROM t GROUP BY c"), Options{}); err == nil {
		t.Error("non-group column in select list should fail")
	}
	if _, err := Run(tbl, q(t, "SELECT *, COUNT(*) FROM t GROUP BY c"), Options{}); err == nil {
		t.Error("star with GROUP BY should fail")
	}
	if _, err := Run(tbl, q(t, "SELECT z, COUNT(*) FROM t GROUP BY z"), Options{}); err == nil {
		t.Error("unknown group column should fail")
	}
}

func TestHaving(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT c, COUNT(*) AS n FROM t GROUP BY c HAVING n > 4"), Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("having rows = %d (a has 5, b has 5)", len(res.Rows))
	}
	res, err = Run(tbl, q(t, "SELECT c, COUNT(*) AS n FROM t GROUP BY c HAVING n > 6"), Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("having should filter all groups, got %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT x FROM t ORDER BY x DESC LIMIT 2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 4 || res.Rows[1][0].AsInt() != 3 {
		t.Errorf("order/limit = %v", res.Rows)
	}
	// ORDER BY an aliased aggregate.
	res, err = Run(tbl, q(t, "SELECT c, SUM(x) AS s FROM t GROUP BY c ORDER BY s DESC"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsText() != "b" {
		t.Errorf("aggregate order = %v", res.Rows)
	}
}

func TestEmptyGlobalAggregate(t *testing.T) {
	tbl := table.New("empty", sc)
	res, err := Run(tbl, q(t, "SELECT COUNT(*), SUM(x), MIN(x) FROM empty"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("empty aggregate rows = %d", len(res.Rows))
	}
	if got, _ := res.Rows[0][0].Float64(); got != 0 {
		t.Errorf("COUNT over empty = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Errorf("SUM/MIN over empty should be NULL: %v", res.Rows[0])
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	tbl := table.New("t", sc)
	if err := tbl.Append([]value.Value{value.Text("a"), value.Null(), value.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]value.Value{value.Text("a"), value.Int(5), value.Float(2)}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(tbl, q(t, "SELECT COUNT(x), COUNT(*) FROM t"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cx, _ := res.Rows[0][0].Float64()
	call, _ := res.Rows[0][1].Float64()
	if cx != 1 || call != 2 {
		t.Errorf("COUNT(x)=%v COUNT(*)=%v", cx, call)
	}
}

func TestWeightPseudoColumn(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT x FROM t WHERE WEIGHT > 2.5"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Weights 2,3,1,4 → rows with x=2 and x=4 qualify.
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 2 || res.Rows[1][0].AsInt() != 4 {
		t.Errorf("WEIGHT filter = %v", res.Rows)
	}
}

func TestMaterialize(t *testing.T) {
	tbl := sampleData(t)
	out, err := Materialize(tbl, q(t, "SELECT c, x FROM t WHERE x < 3"), Options{}, "mat")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || out.Schema().Len() != 2 {
		t.Errorf("materialized %d rows, schema %s", out.Len(), out.Schema())
	}
	k, _ := out.Schema().Kind("c")
	if k != value.KindText {
		t.Errorf("materialized kind = %v", k)
	}
}

func TestResultString(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT c, x FROM t LIMIT 2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "c") || !strings.Contains(s, "-") || !strings.Contains(s, "\n") {
		t.Errorf("String() = %q", s)
	}
}

func TestWeightedAggregatesLinearInWeightsProperty(t *testing.T) {
	// Property: scaling all weights by k scales weighted COUNT(*) and
	// SUM(x) by k and leaves AVG(x) unchanged.
	f := func(k uint8) bool {
		scale := float64(k%7) + 1
		tbl := sampleData(t)
		base, err := Run(tbl, q(t, "SELECT COUNT(*), SUM(x), AVG(x) FROM t"), Options{Weighted: true})
		if err != nil {
			return false
		}
		w := tbl.Weights()
		for i := range w {
			w[i] *= scale
		}
		if err := tbl.SetWeights(w); err != nil {
			return false
		}
		scaled, err := Run(tbl, q(t, "SELECT COUNT(*), SUM(x), AVG(x) FROM t"), Options{Weighted: true})
		if err != nil {
			return false
		}
		b0, _ := base.Rows[0][0].Float64()
		s0, _ := scaled.Rows[0][0].Float64()
		b1, _ := base.Rows[0][1].Float64()
		s1, _ := scaled.Rows[0][1].Float64()
		b2, _ := base.Rows[0][2].Float64()
		s2, _ := scaled.Rows[0][2].Float64()
		return math.Abs(s0-scale*b0) < 1e-9 &&
			math.Abs(s1-scale*b1) < 1e-9 &&
			math.Abs(s2-b2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInPredicateThroughExecutor(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT c, SUM(x) FROM t WHERE c IN ('a') GROUP BY c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "a" {
		t.Errorf("IN filter = %v", res.Rows)
	}
}

func TestDistinctProjection(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT DISTINCT c FROM t ORDER BY c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsText() != "a" || res.Rows[1][0].AsText() != "b" {
		t.Errorf("DISTINCT = %v", res.Rows)
	}
	// Multi-column distinct keeps distinct pairs.
	res, err = Run(tbl, q(t, "SELECT DISTINCT c, x FROM t"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("distinct pairs = %d, want 4", len(res.Rows))
	}
	// DISTINCT respects LIMIT after dedup.
	res, err = Run(tbl, q(t, "SELECT DISTINCT c FROM t LIMIT 1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("distinct+limit = %v", res.Rows)
	}
}

func TestOrderByExpression(t *testing.T) {
	tbl := sampleData(t)
	// ORDER BY an arithmetic expression over output columns.
	res, err := Run(tbl, q(t, "SELECT x, y FROM t ORDER BY y - x DESC LIMIT 1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("expression order = %v", res.Rows)
	}
}

func TestHavingOverGroupColumn(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT c, COUNT(*) FROM t GROUP BY c HAVING c = 'b'"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "b" {
		t.Errorf("HAVING on group key = %v", res.Rows)
	}
}

func TestBetweenThroughExecutor(t *testing.T) {
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT x FROM t WHERE x BETWEEN 2 AND 3 ORDER BY x"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 2 {
		t.Errorf("BETWEEN = %v", res.Rows)
	}
}

func TestDuplicateAggregateColumns(t *testing.T) {
	// Two COUNT(*) items collide on output name; execution must still work.
	tbl := sampleData(t)
	res, err := Run(tbl, q(t, "SELECT COUNT(*), COUNT(*) FROM t"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.Rows[0][0].Float64()
	b, _ := res.Rows[0][1].Float64()
	if a != 4 || b != 4 {
		t.Errorf("duplicate aggregates = %v", res.Rows[0])
	}
}

// TestOrderByUnknownKeyRefusedAtAnyRowCount: an ORDER BY key that names no
// output column is refused whether 0, 1 or 2 rows reach the sort, on the row
// interpreter and on the pipeline alike. The comparator that resolves keys
// never runs for fewer than two rows, so the refusal used to depend on how
// many rows matched.
func TestOrderByUnknownKeyRefusedAtAnyRowCount(t *testing.T) {
	u := table.New("u", schema.MustNew(
		schema.Attribute{Name: "x", Kind: value.KindInt},
		schema.Attribute{Name: "y", Kind: value.KindInt},
	))
	for x := int64(1); x <= 3; x++ {
		if err := u.Append([]value.Value{value.Int(x), value.Int(x * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	shapes := []string{
		"SELECT x FROM u WHERE %s ORDER BY nosuch",
		"SELECT x FROM u WHERE %s ORDER BY x, NoSuch DESC LIMIT 1",
		"SELECT x FROM u WHERE %s ORDER BY x + nosuch",
		"SELECT x + 1 AS z FROM u WHERE %s ORDER BY nosuch",
		"SELECT DISTINCT x FROM u WHERE %s ORDER BY y",
		"SELECT x, COUNT(*) FROM u WHERE %s GROUP BY x ORDER BY nosuch",
	}
	for _, shape := range shapes {
		for rows, where := range []string{"x > 3", "x > 2", "x > 1"} {
			src := fmt.Sprintf(shape, where)
			sel := q(t, src)
			want := fmt.Sprintf("exec: cannot resolve ORDER BY expression %s against output columns", sel.OrderBy[len(sel.OrderBy)-1].Expr)
			for _, force := range []bool{true, false} {
				_, err := Run(u, sel, Options{Weighted: true, ForceRow: force})
				if err == nil || err.Error() != want {
					t.Errorf("%q (%d rows, ForceRow %v): %v, want %q", src, rows, force, err, want)
				}
			}
		}
	}
	// A key that names an output column under another case still resolves.
	if _, err := Run(u, q(t, "SELECT x AS Big FROM u WHERE x > 2 ORDER BY big"), Options{Weighted: true}); err != nil {
		t.Error(err)
	}
}

// TestOrderByFailingKeyRefusedAtAnyRowCount: every kept row's ORDER BY keys
// are read before any row is sorted, so a key that fails at a kept row
// fails the statement on both executors, whether one row or three reach
// the sort and whatever the earlier keys hold. The comparator that read
// keys used to stop at the first key that differed, and never ran for one
// row, so these answered. A statement that keeps no row still answers.
func TestOrderByFailingKeyRefusedAtAnyRowCount(t *testing.T) {
	u := table.New("u", schema.MustNew(
		schema.Attribute{Name: "x", Kind: value.KindInt},
		schema.Attribute{Name: "y", Kind: value.KindInt},
	))
	for x := int64(1); x <= 3; x++ {
		if err := u.Append([]value.Value{value.Int(x), value.Int(x * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{
		"SELECT x, y FROM u ORDER BY x, 1 / (y - 20)",
		"SELECT x, y FROM u WHERE x = 2 ORDER BY 1 / (y - 20)",
		"SELECT x, y FROM u ORDER BY x, 1 / (y - 20) LIMIT 2",
		"SELECT x, COUNT(*) AS n FROM u GROUP BY x ORDER BY x, n / 0",
		"SELECT x, COUNT(*) AS n FROM u WHERE x = 2 GROUP BY x ORDER BY n / 0",
	} {
		sel := q(t, src)
		want := fmt.Sprintf("exec: cannot resolve ORDER BY expression %s against output columns", sel.OrderBy[len(sel.OrderBy)-1].Expr)
		for _, force := range []bool{true, false} {
			_, err := Run(u, sel, Options{Weighted: true, ForceRow: force})
			if err == nil || err.Error() != want {
				t.Errorf("%q (ForceRow %v): %v, want %q", src, force, err, want)
			}
		}
	}
	for _, force := range []bool{true, false} {
		res, err := Run(u, q(t, "SELECT x, y FROM u WHERE x > 3 ORDER BY 1 / (y - 20)"), Options{Weighted: true, ForceRow: force})
		if err != nil || len(res.Rows) != 0 {
			t.Errorf("no kept row (ForceRow %v): %v, %v", force, res, err)
		}
	}
}

// TestTextOrderingOnAllNullColumn: a TEXT column holding only NULLs has an
// empty dictionary, while every NULL row holds code 0. An ordering against
// a literal indexed a table with one entry per interned string and
// panicked, which ended the serving process; every row is NULL, so the
// answer is empty.
func TestTextOrderingOnAllNullColumn(t *testing.T) {
	u := table.New("u", schema.MustNew(
		schema.Attribute{Name: "s", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
	))
	for x := int64(1); x <= 2; x++ {
		if err := u.Append([]value.Value{value.Null(), value.Int(x)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, where := range []string{"s < 'a'", "s >= 'a'", "s BETWEEN 'a' AND 'b'", "s NOT BETWEEN 'a' AND 'b'"} {
		src := "SELECT x FROM u WHERE " + where
		for _, w := range []int{1, 4} {
			res, err := Run(u, q(t, src), Options{Workers: w})
			if err != nil || len(res.Rows) != 0 {
				t.Errorf("%q (Workers %d): %v, error %v; want no rows", src, w, res, err)
			}
		}
	}
}

// TestLiteralInternedAfterSnapshot: the dictionary is live, so a string
// first stored after a snapshot was taken has a code past that snapshot's
// dictionary. Against the snapshot it matches no row, and compiling it
// must not write past the outcome table.
func TestLiteralInternedAfterSnapshot(t *testing.T) {
	for _, first := range []value.Value{value.Text("a"), value.Null()} {
		u := table.New("u", schema.MustNew(schema.Attribute{Name: "s", Kind: value.KindText}))
		if err := u.Append([]value.Value{first}); err != nil {
			t.Fatal(err)
		}
		snap := u.Snapshot()
		if err := u.Append([]value.Value{value.Text("late")}); err != nil {
			t.Fatal(err)
		}
		want := 0 // s <> 'late' and NOT IN keep the snapshot's non-NULL row
		if !first.IsNull() {
			want = 1
		}
		for where, n := range map[string]int{"s = 'late'": 0, "s IN ('late')": 0, "s <> 'late'": want, "s NOT IN ('late')": want} {
			rows, err := SelectRows(t.Context(), snap, q(t, "SELECT * FROM u WHERE "+where).Where, snap.Weights(), 1)
			if err != nil || len(rows) != n {
				t.Errorf("first row %v, %s: rows %v, error %v; want %d rows", first, where, rows, err, n)
			}
		}
	}
}

// TestUnknownNameRefusedAtAnyRowCount: a name that resolves nowhere is
// refused before any row is read, whether 0, 1 or 2 rows (or groups) reach
// it, on the row interpreter, the pipeline and its shards alike. The
// interpreter meets a name only at a row that evaluates it, so the refusal
// used to depend on how many rows matched.
func TestUnknownNameRefusedAtAnyRowCount(t *testing.T) {
	u := table.New("u", schema.MustNew(
		schema.Attribute{Name: "g", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
	))
	for x := int64(1); x <= 3; x++ {
		if err := u.Append([]value.Value{value.Text("a"), value.Int(x)}); err != nil {
			t.Fatal(err)
		}
	}
	shapes := []struct{ src, name string }{
		{"SELECT nosuch FROM u WHERE %s", "nosuch"},
		{"SELECT x, nosuch + 1 FROM u WHERE %s ORDER BY x", "nosuch"},
		{"SELECT g, SUM(nosuch) FROM u WHERE %s GROUP BY g", "nosuch"},
		{"SELECT COUNT(*), MAX(Other) FROM u WHERE %s", "Other"},
		{"SELECT g, COUNT(*) AS n FROM u WHERE %s GROUP BY g HAVING nosuch > 1", "nosuch"},
		{"SELECT g, SUM(x) FROM u WHERE %s GROUP BY g HAVING x > 1", "x"}, // HAVING reads output columns
		{"SELECT nosuch FROM u WHERE %s AND first > 0", "first"},          // WHERE's names come first
		{"SELECT x FROM u WHERE %s OR FALSE AND nosuch > 0", "nosuch"},    // short-circuited at every row
	}
	for _, sh := range shapes {
		for rows, where := range []string{"x > 3", "x > 2", "x > 1"} {
			src := fmt.Sprintf(sh.src, where)
			want := fmt.Sprintf("expr: unknown column %q", sh.name)
			for _, opts := range []Options{{ForceRow: true}, {}, {Workers: 4}, {Shards: 4}} {
				opts.Weighted = true
				_, err := Run(u, q(t, src), opts)
				if err == nil || err.Error() != want {
					t.Errorf("%q (%d rows, %+v): %v, want %q", src, rows, opts, err, want)
				}
			}
		}
	}
	// WEIGHT resolves, and so does a name under another case.
	for _, src := range []string{"SELECT weight, X FROM u WHERE x > 3", "SELECT g, SUM(WEIGHT) AS s FROM u WHERE x > 3 GROUP BY g HAVING S > 0"} {
		if _, err := Run(u, q(t, src), Options{Weighted: true}); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}
