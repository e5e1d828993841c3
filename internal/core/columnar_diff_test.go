package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mosaic/internal/expr"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// columnarWorld builds a three-attribute world with a biased sample, full
// metadata, a derived population, and an auxiliary table with NULLs —
// enough surface to drive every visibility through both executors.
func columnarWorld(t *testing.T, rowExec bool) *Engine {
	t.Helper()
	e := NewEngine(Options{
		Seed:        1,
		OpenSamples: 4,
		Workers:     2,
		RowExec:     rowExec,
		SWG: swg.Config{
			Hidden: []int{16, 16}, Latent: 2, Epochs: 4,
			BatchSize: 64, Projections: 8, StepsPerEpoch: 4,
		},
	})
	exec1(t, e, `
		CREATE GLOBAL POPULATION World (grp TEXT, v INT, z FLOAT);
		CREATE POPULATION Agroup AS (SELECT grp, v, z FROM World WHERE grp = 'a');
		CREATE SAMPLE S AS (SELECT * FROM World WHERE v <= 2);
		CREATE TABLE Truth (grp TEXT, v INT, z FLOAT, n INT);
		CREATE TABLE Aux (c TEXT, x INT, y FLOAT);
	`)
	if err := e.Ingest("Truth", [][]any{
		{"a", 1, 0.5, 40}, {"b", 2, 1.5, 60}, {"a", 2, 2.5, 30}, {"c", 1, 0.5, 20},
	}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `
		CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
		CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
	`)
	rng := rand.New(rand.NewSource(5))
	rows := make([][]any, 0, 60)
	grps := []string{"a", "a", "a", "b", "c"}
	for i := 0; i < 60; i++ {
		rows = append(rows, []any{
			grps[rng.Intn(len(grps))],
			int64(1 + rng.Intn(2)),
			float64(rng.Intn(40)) / 4,
		})
	}
	if err := e.Ingest("S", rows); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `
		INSERT INTO Aux VALUES
			('p', 1, 0.25), ('q', 2, NULL), (NULL, 3, 1.5),
			('p', NULL, 2.5), ('q', 2, 0.25), ('p', 1, NULL);
	`)
	return e
}

// columnarDiffQueries spans the three visibilities, both population scopes,
// direct sample/table access, NULL handling, and the post-aggregation
// clauses.
var columnarDiffQueries = []string{
	`SELECT CLOSED grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp`,
	`SELECT CLOSED COUNT(*), AVG(z), MIN(v), MAX(z) FROM World WHERE grp != 'b'`,
	`SELECT CLOSED grp, v, COUNT(*) AS cnt FROM World GROUP BY grp, v ORDER BY cnt DESC, grp LIMIT 3`,
	`SELECT SEMI-OPEN grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp`,
	`SELECT SEMI-OPEN COUNT(*) FROM World WHERE z BETWEEN 1 AND 8`,
	`SELECT SEMI-OPEN v, SUM(WEIGHT) FROM World WHERE grp IN ('a', 'c') GROUP BY v ORDER BY v`,
	`SELECT SEMI-OPEN AVG(v) FROM World`,
	`SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp`,
	`SELECT OPEN AVG(v), COUNT(*) FROM World WHERE v >= 1`,
	`SELECT OPEN v, COUNT(*) AS cnt FROM World GROUP BY v HAVING cnt > 0 ORDER BY v DESC LIMIT 2`,
	`SELECT CLOSED grp, COUNT(*) FROM Agroup GROUP BY grp`,
	`SELECT SEMI-OPEN COUNT(*), AVG(z) FROM Agroup`,
	`SELECT OPEN COUNT(*) FROM Agroup`,
	`SELECT * FROM S WHERE v = 1 ORDER BY z LIMIT 5`,
	`SELECT grp, COUNT(*) FROM S GROUP BY grp ORDER BY grp`,
	`SELECT c, COUNT(x), SUM(y), MIN(y) FROM Aux GROUP BY c`,
	`SELECT c, x, COUNT(*) FROM Aux WHERE y IS NOT NULL GROUP BY c, x`,
	`SELECT DISTINCT c FROM Aux WHERE x > 1 OR y < 1`,
}

// TestColumnarVsRowAcrossVisibilities is the engine-level differential
// harness: identical scripts on two engines — one forced onto the row
// executor, one on the columnar path — must render byte-identical answers
// for CLOSED, SEMI-OPEN, and OPEN queries alike.
func TestColumnarVsRowAcrossVisibilities(t *testing.T) {
	rowEng := columnarWorld(t, true)
	vecEng := columnarWorld(t, false)
	for _, q := range columnarDiffQueries {
		sel, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rres, rerr := rowEng.Query(sel)
		vres, verr := vecEng.Query(sel)
		switch {
		case rerr != nil && verr != nil:
			if rerr.Error() != verr.Error() {
				t.Errorf("%q: error mismatch\n  row: %v\n  vec: %v", q, rerr, verr)
			}
		case rerr != nil || verr != nil:
			t.Errorf("%q: one engine errored\n  row: %v\n  vec: %v", q, rerr, verr)
		default:
			if rs, vs := rres.String(), vres.String(); rs != vs {
				t.Errorf("%q: answer mismatch\n--- row engine ---\n%s\n--- columnar engine ---\n%s", q, rs, vs)
			}
		}
	}
}

// TestColumnarEngineStableUnderRepeat guards the snapshot machinery against
// cache interactions: repeated mixed-visibility queries on the columnar
// engine must not drift.
func TestColumnarEngineStableUnderRepeat(t *testing.T) {
	e := columnarWorld(t, false)
	for _, q := range []string{
		`SELECT SEMI-OPEN grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp`,
		`SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp`,
	} {
		sel, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(sel)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		first := res.String()
		for i := 0; i < 3; i++ {
			again, err := e.Query(sel)
			if err != nil {
				t.Fatalf("%q rerun: %v", q, err)
			}
			if s := again.String(); s != first {
				t.Fatalf("%q drifted on rerun %d:\n%s\nvs\n%s", q, i+1, s, first)
			}
		}
	}
}

// TestFilterTableMatchesRowCopy: the view-scope sub-sample, selected once
// and appended a chunk at a time, equals a row-by-row copy of the rows the
// predicate keeps — values, weights, and the order TEXT enters the new
// table's dictionary — over several chunks, for a compiled and an
// interpreted predicate and for none.
func TestFilterTableMatchesRowCopy(t *testing.T) {
	sc := schema.MustNew(
		schema.Attribute{Name: "g", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
	)
	src := table.New("S", sc)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3*ingestChunk+17; i++ {
		row := []value.Value{value.Text(fmt.Sprintf("g%d", rng.Intn(i/50+1))), value.Int(int64(rng.Intn(100)))}
		if err := src.AppendWeighted(row, 0.5+float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	for _, where := range []string{"", "x > 30", "(x > 30) = (g <> 'g3')"} {
		var pred expr.Expr
		if where != "" {
			p, err := sql.ParseExpr(where)
			if err != nil {
				t.Fatal(err)
			}
			pred = p
		}
		want := table.New("S_view", sc)
		b := &expr.Binding{Schema: sc}
		snap := src.Snapshot()
		for i := 0; i < snap.Len(); i++ {
			b.Row = snap.AppendRow(b.Row[:0], i)
			if pred != nil {
				if ok, err := expr.Truthy(pred, b); err != nil {
					t.Fatal(err)
				} else if !ok {
					continue
				}
			}
			if err := want.AppendWeighted(b.Row, snap.Weight(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 4} {
			got, err := filterTable(context.Background(), src, pred, workers)
			if err != nil {
				t.Fatalf("WHERE %q: %v", where, err)
			}
			ws, gs := want.Snapshot(), got.Snapshot()
			if gs.Len() != ws.Len() {
				t.Fatalf("WHERE %q workers %d: %d rows, want %d", where, workers, gs.Len(), ws.Len())
			}
			for i := 0; i < ws.Len(); i++ {
				if fmt.Sprint(gs.Row(i)) != fmt.Sprint(ws.Row(i)) || gs.Weight(i) != ws.Weight(i) {
					t.Fatalf("WHERE %q workers %d: row %d = %v w %v, want %v w %v", where, workers, i, gs.Row(i), gs.Weight(i), ws.Row(i), ws.Weight(i))
				}
			}
			if fmt.Sprint(gs.DictStrings()) != fmt.Sprint(ws.DictStrings()) {
				t.Errorf("WHERE %q workers %d: dictionary order %v, want %v", where, workers, gs.DictStrings(), ws.DictStrings())
			}
		}
	}
}
