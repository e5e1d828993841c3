package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// The metamorphic harness checks algebraic identities that must hold for
// ANY correct executor — no oracle needed — and checks them on both executor
// paths, so a bug that slipped past the differential harness (where both
// paths could be wrong together) still gets caught:
//
//  1. ORDER BY x LIMIT k  ==  the k-prefix of ORDER BY x
//  2. DISTINCT cols       ==  GROUP BY cols over the same columns
//  3. WHERE c1 AND c2     ==  the c1 rows whose unique id also passes c2
var metaSchema = schema.MustNew(
	schema.Attribute{Name: "id", Kind: value.KindInt}, // unique, never NULL
	schema.Attribute{Name: "c", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindInt},
	schema.Attribute{Name: "y", Kind: value.KindFloat},
	schema.Attribute{Name: "b", Kind: value.KindBool},
)

func metaTable(tb testing.TB, n int, seed int64) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	t := table.New("t", metaSchema)
	for i := 0; i < n; i++ {
		row := make([]value.Value, 5)
		row[0] = value.Int(int64(i))
		if rng.Intn(8) == 0 {
			row[1] = value.Null()
		} else {
			row[1] = value.Text(fmt.Sprintf("g%d", rng.Intn(5)))
		}
		if rng.Intn(8) == 0 {
			row[2] = value.Null()
		} else {
			row[2] = value.Int(int64(rng.Intn(40) - 20))
		}
		switch rng.Intn(10) {
		case 0:
			row[3] = value.Null()
		case 1:
			row[3] = value.Float(math.NaN()) // sorts above every number: stresses the sort words and top-K
		default:
			row[3] = value.Float(float64(rng.Intn(64)) / 8)
		}
		row[4] = value.Bool(rng.Intn(2) == 0)
		if err := t.AppendWeighted(row, float64(rng.Intn(6))/2); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// execModes is the executor sweep every metamorphic identity runs under: the
// row interpreter, the serial vectorized scan, and the morsel-parallel pool
// at several worker counts. The identities must hold on each mode alone (and
// the differential harness separately pins the modes to each other).
var execModes = []Options{
	{Weighted: true, ForceRow: true},
	{Weighted: true, Workers: 1},
	{Weighted: true, Workers: 2},
	{Weighted: true, Workers: 4},
	{Weighted: true, Workers: 8},
}

func modeLabel(opts Options) string {
	if opts.ForceRow {
		return "row"
	}
	return fmt.Sprintf("vec@%d", opts.Workers)
}

func mustRun(t *testing.T, tbl *table.Table, src string, opts Options) *Result {
	t.Helper()
	sel, err := sql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := Run(tbl, sel, opts)
	if err != nil {
		t.Fatalf("%q (%s): %v", src, modeLabel(opts), err)
	}
	return res
}

func renderResultRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.HashKey())
			b.WriteByte('\x1f')
		}
		out[i] = b.String()
	}
	return out
}

// TestMetamorphicLimitPrefix: for every ORDER BY, the LIMIT k answer must be
// the k-prefix of the unlimited answer — the tie-break contract makes the
// unlimited order unique enough for this to be exact, and the heap top-K
// must agree with the full sort it replaces.
func TestMetamorphicLimitPrefix(t *testing.T) {
	cases := [][2]string{
		{"SELECT * FROM t %s", "ORDER BY y"},
		{"SELECT * FROM t %s", "ORDER BY y DESC, c"},
		{"SELECT * FROM t %s", "ORDER BY x DESC, id"},
		{"SELECT * FROM t %s", "ORDER BY c, b DESC"},
		{"SELECT c, y FROM t %s", "ORDER BY y DESC, c"},
		{"SELECT c, y FROM t %s", "ORDER BY c, y"},
		{"SELECT DISTINCT c, b FROM t %s", "ORDER BY c, b DESC"},
		{"SELECT DISTINCT c, b FROM t %s", "ORDER BY b DESC, c"},
		{"SELECT id, WEIGHT FROM t %s", "ORDER BY WEIGHT, id"},
		{"SELECT id, x FROM t %s", "ORDER BY x + id"}, // expression key: generic path
	}
	for _, n := range []int{0, 1, 37, 400} {
		tbl := metaTable(t, n, int64(n)+1)
		for _, mode := range execModes {
			for _, cse := range cases {
				sel, order := cse[0], cse[1]
				full := renderResultRows(mustRun(t, tbl, fmt.Sprintf(sel, order), mode))
				for _, k := range []int{0, 1, 3, n, 2*n + 5} {
					src := fmt.Sprintf(sel, order) + fmt.Sprintf(" LIMIT %d", k)
					got := renderResultRows(mustRun(t, tbl, src, mode))
					want := full
					if k < len(want) {
						want = want[:k]
					}
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("%q (n=%d %s): LIMIT %d is not the prefix of the full sort\n got: %v\nwant: %v",
							src, n, modeLabel(mode), k, got, want)
					}
				}
			}
		}
	}
}

// TestMetamorphicDistinctEqualsGroupBy: SELECT DISTINCT cols must equal
// SELECT cols ... GROUP BY cols — first-occurrence order on one side,
// group first-appearance order on the other; the identity pins them to
// each other.
func TestMetamorphicDistinctEqualsGroupBy(t *testing.T) {
	colSets := [][2]string{
		{"c", "c"},
		{"c, b", "c, b"},
		{"x", "x"},
		{"y, b", "y, b"}, // NaN and NULL keys must group/dedup identically
		{"c, x, b", "c, x, b"},
	}
	wheres := []string{"", "WHERE x > 0", "WHERE y * 2 > 3", "WHERE c != 'g0'"}
	for _, n := range []int{0, 1, 300} {
		tbl := metaTable(t, n, int64(n)+11)
		for _, mode := range execModes {
			for _, cs := range colSets {
				for _, where := range wheres {
					d := renderResultRows(mustRun(t, tbl, fmt.Sprintf("SELECT DISTINCT %s FROM t %s", cs[0], where), mode))
					g := renderResultRows(mustRun(t, tbl, fmt.Sprintf("SELECT %s FROM t %s GROUP BY %s", cs[0], where, cs[1]), mode))
					if strings.Join(d, "\n") != strings.Join(g, "\n") {
						t.Fatalf("DISTINCT %s %q (n=%d %s) != GROUP BY:\n distinct: %v\n group-by: %v",
							cs[0], where, n, modeLabel(mode), d, g)
					}
				}
			}
		}
	}
}

// TestMetamorphicConjunctionIntersection: the rows of WHERE c1 AND c2 must
// be exactly the WHERE c1 rows whose unique id also satisfies c2, in the
// same scan order (AND-true requires both arms true under 3VL, so NULL arms
// drop out on both sides of the identity).
func TestMetamorphicConjunctionIntersection(t *testing.T) {
	preds := []string{
		"x > 0",
		"y < 4",
		"c = 'g1'",
		"x % 2 = 0",
		"b",
		"y * 2 > x + 1",
		"x IS NOT NULL",
		"c IN ('g1', 'g2')",
	}
	for _, n := range []int{0, 1, 250} {
		tbl := metaTable(t, n, int64(n)+23)
		for _, mode := range execModes {
			for i, p1 := range preds {
				for _, p2 := range preds[i+1:] {
					and := renderResultRows(mustRun(t, tbl, fmt.Sprintf("SELECT id FROM t WHERE %s AND %s", p1, p2), mode))
					r1 := renderResultRows(mustRun(t, tbl, fmt.Sprintf("SELECT id FROM t WHERE %s", p1), mode))
					r2 := renderResultRows(mustRun(t, tbl, fmt.Sprintf("SELECT id FROM t WHERE %s", p2), mode))
					in2 := make(map[string]bool, len(r2))
					for _, id := range r2 {
						in2[id] = true
					}
					var want []string
					for _, id := range r1 {
						if in2[id] {
							want = append(want, id)
						}
					}
					if strings.Join(and, "\n") != strings.Join(want, "\n") {
						t.Fatalf("WHERE %s AND %s (n=%d %s) != intersection\n  and: %v\n want: %v",
							p1, p2, n, modeLabel(mode), and, want)
					}
				}
			}
		}
	}
}
