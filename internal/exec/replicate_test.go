package exec

import (
	"context"
	"strings"
	"testing"

	"mosaic/internal/table"
	"mosaic/internal/value"
)

// replicas is a RunReplicates generator over fixed replicate tables.
func replicas(reps ...*table.Table) func(context.Context, int) (*table.Table, error) {
	return func(_ context.Context, r int) (*table.Table, error) { return reps[r], nil }
}

// repTable builds one replicate over the (c, x, y) test schema at weight 1.
func repTable(t *testing.T, rows ...[]value.Value) *table.Table {
	t.Helper()
	tbl := table.New("t", sc)
	for _, r := range rows {
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func cxy(c string, x int64, y float64) []value.Value {
	return []value.Value{value.Text(c), value.Int(x), value.Float(y)}
}

// rowsText renders an answer's rows on one line: cells by spaces, rows by " | ".
func rowsText(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = renderValue(v)
		}
		rows[i] = strings.Join(cells, " ")
	}
	return strings.Join(rows, " | ")
}

// TestOpenCombineProtocol pins the OPEN combine (paper Sec 5.3) on
// hand-built replicates: only groups present in every replicate survive, in
// replicate-0 order, each aggregate cell averaged across replicates — whether
// or not the query projects its GROUP BY columns — and a NULL cell in any
// replicate stays NULL. Every executor mode and worker count agrees.
func TestOpenCombineProtocol(t *testing.T) {
	rep0 := repTable(t, cxy("b", 1, 10), cxy("a", 2, 20), cxy("z", 3, 30))
	rep1 := repTable(t, cxy("a", 4, 40), cxy("b", 1, 50), cxy("a", 6, 60))
	cases := []struct{ src, want string }{
		// z is missing from replicate 1; b leads because replicate 0 lists it
		// first, though replicate 1 lists a first.
		{"SELECT c, COUNT(*), SUM(x) FROM t GROUP BY c", "b 1 1 | a 1.5 6"},
		{"SELECT COUNT(*) FROM t GROUP BY c", "1 | 1.5"},
		// Groups are (c, x) pairs even where only c is projected: (b, 1) is
		// the one pair both replicates hold.
		{"SELECT c, COUNT(*) FROM t GROUP BY c, x", "b 1"},
		// The selection is empty in replicate 0: its AVG is NULL, and so is
		// the combined cell.
		{"SELECT COUNT(*), AVG(y) FROM t WHERE x > 4", "0.5 NULL"},
		// Post-aggregation clauses apply to the combined answer.
		{"SELECT c, COUNT(*) AS n FROM t GROUP BY c HAVING n > 1", "a 1.5"},
		{"SELECT c, COUNT(*) AS n FROM t GROUP BY c ORDER BY n DESC LIMIT 1", "a 1.5"},
		// A non-aggregate query answers from replicate 0 alone.
		{"SELECT c FROM t", "b | a | z"},
	}
	for _, opts := range []Options{{Weighted: true}, {Weighted: true, Workers: 4}, {Weighted: true, ForceRow: true}} {
		run := func(src string) (*Result, error) {
			return RunReplicates(context.Background(), q(t, src), 2, opts, replicas(rep0, rep1))
		}
		for _, tc := range cases {
			res, err := run(tc.src)
			if err != nil {
				t.Fatalf("%q (%s): %v", tc.src, modeLabel(opts), err)
			}
			if got := rowsText(res); got != tc.want {
				t.Errorf("%q (%s) = %q, want %q", tc.src, modeLabel(opts), got, tc.want)
			}
		}
		const wantErr = "core: non-numeric aggregate in OPEN combine: value: cannot coerce TEXT to float"
		if _, err := run("SELECT MIN(c) FROM t"); err == nil || err.Error() != wantErr {
			t.Errorf("MIN over TEXT (%s): err = %v, want %q", modeLabel(opts), err, wantErr)
		}
	}
}
