package exec

import (
	"context"
	"fmt"
	"testing"

	"mosaic/internal/sql"
	"mosaic/internal/table"
)

// TestColumnwiseEdgeCases runs the shapes where a column-at-a-time answer
// writer has no rows, or one row and no groups, to fill through every
// path into finalize — the row interpreter, the vector scan, the shard and
// fleet gathers and the OPEN replicate combine — and through the
// projection writer: GROUP BY over zero selected rows, a global aggregate
// over zero rows (one row of empty aggregates), HAVING that drops every
// group, and LIMIT 0.
func TestColumnwiseEdgeCases(t *testing.T) {
	ctx := context.Background()
	tables := map[string]*table.Table{"empty": diffTable(t, 0, 1), "130 rows": diffTable(t, 130, 4)}
	aggs := []struct{ src, want string }{
		{"SELECT c, COUNT(*), AVG(y) FROM t WHERE x > 100000 GROUP BY c", ""},
		{"SELECT c, b, MIN(y), MAX(c) FROM t WHERE x > 100000 GROUP BY c, b", ""},
		{"SELECT COUNT(*), SUM(y), AVG(y), MIN(c), MAX(x) FROM t WHERE x > 100000", "0 NULL NULL NULL NULL"},
		{"SELECT c, COUNT(*) AS n FROM t GROUP BY c HAVING n < 0", ""},
		{"SELECT COUNT(*) AS n FROM t HAVING n < 0", ""},
		{"SELECT c, x, COUNT(*) FROM t GROUP BY c, x LIMIT 0", ""},
		{"SELECT c, SUM(y) FROM t GROUP BY c ORDER BY c LIMIT 0", ""},
		{"SELECT COUNT(*), AVG(y) FROM t LIMIT 0", ""},
	}
	for name, tbl := range tables {
		snap := tbl.Snapshot()
		for _, tc := range aggs {
			sel, err := sql.ParseQuery(tc.src)
			if err != nil {
				t.Fatalf("parse %q: %v", tc.src, err)
			}
			check := func(path string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s, %s: %q: %v", name, path, tc.src, err)
					return
				}
				if got := rowsText(res); got != tc.want || len(res.Columns) != len(sel.Items) {
					t.Errorf("%s, %s: %q = %v %q, want %d columns %q", name, path, tc.src, res.Columns, got, len(sel.Items), tc.want)
				}
			}
			for _, w := range []bool{false, true} {
				res, err := Run(tbl, sel, Options{Weighted: w, ForceRow: true})
				check("row interpreter", res, err)
				res, err = runAggregateVector(ctx, snap, sel, Options{Weighted: w})
				check("vector scan", res, err)
				res, err = Run(tbl, sel, Options{Weighted: w, Shards: 4})
				check("shard gather", res, err)
			}
			partials := make([]*ShardPartial, 3)
			for i := range partials {
				p, err := PartialAggregate(ctx, snap, sel, Options{Weighted: true}, i, len(partials))
				if err != nil {
					t.Fatalf("%q: partial %d: %v", tc.src, i, err)
				}
				partials[i] = p
			}
			res, err := GatherPartials(ctx, sel, partials)
			check("fleet gather", res, err)
			res, err = RunReplicates(ctx, sel, 2, Options{Weighted: true}, replicas(tbl, tbl))
			check("OPEN combine", res, err)
		}
	}

	projections := []string{
		"SELECT c, x, WEIGHT FROM t WHERE x > 100000",
		"SELECT * FROM t WHERE x > 0 LIMIT 0",
		"SELECT c, y FROM t WHERE x > 0 ORDER BY y LIMIT 0",
		"SELECT DISTINCT c, b FROM t WHERE x > 100000",
		"SELECT y, WEIGHT FROM t WHERE x > 100000 ORDER BY y",
	}
	for name, tbl := range tables {
		for _, src := range projections {
			sel, err := sql.ParseQuery(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			res, err := runProjectionVector(ctx, tbl.Snapshot(), sel, Options{Weighted: true})
			if err != nil {
				t.Fatalf("%s: %q: %v", name, src, err)
			}
			row, err := Run(tbl, sel, Options{Weighted: true, ForceRow: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 0 || fmt.Sprint(res.Columns) != fmt.Sprint(row.Columns) || len(row.Rows) != 0 {
				t.Errorf("%s: %q: projection writer %v %q, row interpreter %v %q; want no rows", name, src, res.Columns, rowsText(res), row.Columns, rowsText(row))
			}
		}
	}
}
