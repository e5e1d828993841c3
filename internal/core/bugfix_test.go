package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/value"
)

// closeWorld builds a world whose two groups have nearly equal population
// counts, so per-replicate OPEN answers disagree on which group is on top:
// exactly the regime where applying ORDER BY/LIMIT/HAVING per replicate
// (instead of after the combine) changes the answer.
func closeWorld(t *testing.T) *Engine {
	return twoGroupWorld(t, 5, 0)
}

// twoGroupWorld is closeWorld with the replicate count and Workers given.
func twoGroupWorld(t *testing.T, openSamples, workers int) *Engine {
	t.Helper()
	e := NewEngine(Options{
		Seed:          31,
		OpenSamples:   openSamples,
		Workers:       workers,
		GeneratedRows: 512,
		SWG: swg.Config{
			Hidden: []int{16, 16}, Latent: 2, Epochs: 10,
			BatchSize: 128, Projections: 12, StepsPerEpoch: 4,
		},
	})
	exec1(t, e, `
		CREATE GLOBAL POPULATION World (grp TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM World);
		CREATE TABLE Truth (grp TEXT, v INT, n INT);
	`)
	if err := e.Ingest("Truth", [][]any{
		{"a", 1, 50}, {"b", 2, 50},
	}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `
		CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
		CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
	`)
	rows := make([][]any, 0, 20)
	for i := 0; i < 10; i++ {
		rows = append(rows, []any{"a", 1}, []any{"b", 2})
	}
	if err := e.Ingest("S", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOpenOrderByLimitAppliesAfterCombine(t *testing.T) {
	e := closeWorld(t)
	full := query(t, e, "SELECT OPEN grp, COUNT(*) AS cnt FROM World GROUP BY grp ORDER BY cnt DESC")
	if len(full) < 2 {
		t.Fatalf("full OPEN answer has %d groups, want 2", len(full))
	}
	c0, _ := full[0][1].Float64()
	c1, _ := full[1][1].Float64()
	if c0 == c1 {
		t.Fatalf("degenerate workload: combined counts tie at %g; pick another seed", c0)
	}

	top := query(t, e, "SELECT OPEN grp, COUNT(*) AS cnt FROM World GROUP BY grp ORDER BY cnt DESC LIMIT 1")
	// LIMIT 1 must return exactly the top row of the combined answer. The
	// pre-fix code applied LIMIT per replicate, so replicates that disagreed
	// on the top group emptied (or biased) the intersection.
	if len(top) != 1 {
		t.Fatalf("LIMIT 1 returned %d rows, want 1 (per-replicate LIMIT drops combinable groups)", len(top))
	}
	if top[0][0].AsText() != full[0][0].AsText() {
		t.Errorf("LIMIT 1 top group = %s, want %s (the combined top)", top[0][0], full[0][0])
	}
	gotCnt, _ := top[0][1].Float64()
	if gotCnt != c0 {
		t.Errorf("LIMIT 1 count = %g, want combined average %g", gotCnt, c0)
	}
}

func TestOpenHavingAppliesAfterCombine(t *testing.T) {
	e := closeWorld(t)
	full := query(t, e, "SELECT OPEN grp, COUNT(*) AS cnt FROM World GROUP BY grp ORDER BY grp")
	// Threshold just under each group's combined average: every group whose
	// average passes must survive, even when some individual replicate's
	// count dips below the threshold (pre-fix, such groups vanished because
	// HAVING filtered them out of single replicates before the intersect).
	for _, row := range full {
		avg, _ := row[1].Float64()
		thresh := avg - 1e-9
		q := "SELECT OPEN grp, COUNT(*) AS cnt FROM World GROUP BY grp HAVING cnt > " +
			strings.TrimSpace(value.Float(thresh).String()) + " ORDER BY grp"
		got := query(t, e, q)
		found := false
		for _, g := range got {
			if g[0].AsText() == row[0].AsText() {
				found = true
				f, _ := g[1].Float64()
				if f != avg {
					t.Errorf("group %s count with HAVING = %g, want %g", row[0], f, avg)
				}
			}
		}
		if !found {
			t.Errorf("group %s (avg %g) missing under HAVING cnt > %g", row[0], avg, thresh)
		}
	}
}

// TestOpenKeysOnGroupByValues: the OPEN combine keys a group on its GROUP BY
// values, not on the columns the query projects. Keyed on the projection, an
// unprojected GROUP BY collapsed every group into one row, and projecting a
// subset of the keys merged the groups that share it.
func TestOpenKeysOnGroupByValues(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := twoGroupWorld(t, 3, workers)
		if n := len(query(t, e, "SELECT CLOSED COUNT(*) FROM S GROUP BY grp")); n != 2 {
			t.Fatalf("the sample holds %d groups, want 2", n)
		}
		for _, tc := range []struct {
			keyed, projected string
			cols             []int // the projected answer's columns the keyed one must equal
		}{
			{"SELECT OPEN COUNT(*) FROM World GROUP BY grp", "SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp", []int{1}},
			{"SELECT OPEN COUNT(*) FROM World GROUP BY grp, v", "SELECT OPEN grp, v, COUNT(*) FROM World GROUP BY grp, v", []int{2}},
			{"SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp, v", "SELECT OPEN grp, v, COUNT(*) FROM World GROUP BY grp, v", []int{0, 2}},
		} {
			keyed, projected := query(t, e, tc.keyed), query(t, e, tc.projected)
			if len(projected) < 2 {
				t.Fatalf("%q (Workers %d) has %d groups, want at least 2", tc.projected, workers, len(projected))
			}
			if len(keyed) != len(projected) {
				t.Fatalf("%q (Workers %d) returned %d rows, %q %d", tc.keyed, workers, len(keyed), tc.projected, len(projected))
			}
			for i, row := range keyed {
				for j, c := range tc.cols {
					if row[j].String() != projected[i][c].String() {
						t.Errorf("%q (Workers %d) row %d = %v, want the columns %v of %v", tc.keyed, workers, i, row, tc.cols, projected[i])
					}
				}
			}
		}
	}
}

func TestPlanCollectsOrderByColumns(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (a TEXT, b INT);
		CREATE SAMPLE Small (a TEXT) AS (SELECT a FROM P);
		CREATE SAMPLE Full AS (SELECT * FROM P);
	`)
	rowsSmall := make([][]any, 20)
	for i := range rowsSmall {
		rowsSmall[i] = []any{"x"}
	}
	if err := e.Ingest("Small", rowsSmall); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("Full", [][]any{{"x", 1}, {"y", 2}}); err != nil {
		t.Fatal(err)
	}
	pop, _ := e.Catalog().Population("P")

	plans := []struct {
		q    string
		want string
	}{
		// ORDER BY b requires a sample storing b, despite Small being larger.
		{"SELECT a, COUNT(*) AS cnt FROM P GROUP BY a ORDER BY b", "Full"},
		// HAVING referencing a non-output schema column constrains too.
		{"SELECT a, COUNT(*) AS cnt FROM P GROUP BY a HAVING b > 0", "Full"},
		// Output-column names (aliases) resolve against the result, not the
		// sample: they must NOT constrain the choice.
		{"SELECT a, COUNT(*) AS cnt FROM P GROUP BY a ORDER BY cnt DESC", "Small"},
		{"SELECT a, COUNT(*) AS cnt FROM P GROUP BY a HAVING cnt > 1", "Small"},
	}
	for _, tc := range plans {
		sel, err := sql.ParseQuery(tc.q)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		ctx, err := e.plan(pop, sel)
		if err != nil {
			t.Fatalf("plan %q: %v", tc.q, err)
		}
		if ctx.sample.Name != tc.want {
			t.Errorf("plan %q chose sample %s, want %s", tc.q, ctx.sample.Name, tc.want)
		}
	}

	// A column no sample stores now fails at plan time with a clear error,
	// not deep in exec with "cannot resolve ORDER BY".
	sel, _ := sql.ParseQuery("SELECT a, COUNT(*) AS cnt FROM P GROUP BY a ORDER BY zz")
	if _, err := e.plan(pop, sel); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Errorf("ORDER BY over uncovered column: err = %v, want early 'no sample ... covers' error", err)
	}
}

func TestStarOnGlobalPopulationIsSampleIndependent(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (a INT, b TEXT);
		CREATE SAMPLE Big (a INT) AS (SELECT a FROM P);
		CREATE SAMPLE Rev (b TEXT, a INT) AS (SELECT b, a FROM P);
	`)
	rowsBig := make([][]any, 20)
	for i := range rowsBig {
		rowsBig[i] = []any{i}
	}
	if err := e.Ingest("Big", rowsBig); err != nil {
		t.Fatal(err)
	}
	// Rev stores the population attributes in reversed column order.
	if err := e.Ingest("Rev", [][]any{{"x", 1}, {"y", 2}, {"z", 3}}); err != nil {
		t.Fatal(err)
	}

	sel, err := sql.ParseQuery("SELECT CLOSED * FROM P ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	// The answer shape is the population's schema — not Big's single column
	// (the pre-fix behavior: largest sample wins and dictates the shape) and
	// not Rev's reversed order.
	if got := strings.Join(res.Columns, ","); got != "a,b" {
		t.Fatalf("star columns = %q, want %q (population schema order)", got, "a,b")
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (only Rev covers the population schema)", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsText() != "x" {
		t.Errorf("row 0 = %v, want (1, 'x') — values must follow the population attribute order", res.Rows[0])
	}

	// COUNT(*) is not a projection star: it must still run on the largest
	// sample without requiring full schema coverage.
	if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM P"); got != 20 {
		t.Errorf("COUNT(*) = %g, want 20 (answered from Big)", got)
	}

	// With no covering sample at all, a star query fails up front.
	exec1(t, e, `DROP SAMPLE Rev`)
	if _, err := e.Query(sel); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Errorf("star with no covering sample: err = %v, want 'no sample ... covers'", err)
	}
}

// TestOpenLimitMatchesUnlimitedPrefix pins the combine-then-limit contract on
// a workload with more groups: for every k, LIMIT k must be the k-prefix of
// the unlimited ordered answer.
func TestOpenLimitMatchesUnlimitedPrefix(t *testing.T) {
	e := NewEngine(Options{
		Seed:          42,
		OpenSamples:   4,
		GeneratedRows: 512,
		SWG: swg.Config{
			Hidden: []int{16, 16}, Latent: 2, Epochs: 10,
			BatchSize: 128, Projections: 12, StepsPerEpoch: 4,
		},
	})
	exec1(t, e, `
		CREATE GLOBAL POPULATION W (g TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM W);
		CREATE TABLE T (g TEXT, v INT, n INT);
	`)
	if err := e.Ingest("T", [][]any{
		{"a", 1, 30}, {"b", 2, 28}, {"c", 3, 26}, {"d", 4, 24},
	}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `
		CREATE METADATA W_M1 AS (SELECT g, n FROM T);
		CREATE METADATA W_M2 AS (SELECT v, n FROM T);
	`)
	var rows [][]any
	for i := 0; i < 8; i++ {
		rows = append(rows, []any{"a", 1}, []any{"b", 2}, []any{"c", 3}, []any{"d", 4})
	}
	if err := e.Ingest("S", rows); err != nil {
		t.Fatal(err)
	}

	full := query(t, e, "SELECT OPEN g, COUNT(*) AS cnt FROM W GROUP BY g ORDER BY cnt DESC, g")
	if len(full) < 3 {
		t.Fatalf("full answer has %d groups, want ≥3", len(full))
	}
	for k := 1; k <= len(full); k++ {
		limited := query(t, e, "SELECT OPEN g, COUNT(*) AS cnt FROM W GROUP BY g ORDER BY cnt DESC, g LIMIT "+itoa(k))
		if len(limited) != k {
			t.Fatalf("LIMIT %d returned %d rows", k, len(limited))
		}
		for i := 0; i < k; i++ {
			if limited[i][0].AsText() != full[i][0].AsText() {
				t.Errorf("LIMIT %d row %d group = %s, want %s", k, i, limited[i][0], full[i][0])
			}
			lf, _ := limited[i][1].Float64()
			ff, _ := full[i][1].Float64()
			if math.Abs(lf-ff) != 0 {
				t.Errorf("LIMIT %d row %d count = %g, want %g", k, i, lf, ff)
			}
		}
	}
}

// TestInsertKeepsUserWeights: a sample's weights are stored once, in its
// table, so an INSERT adds a tuple at weight 1 and leaves the weights an
// earlier UPDATE SAMPLE set alone (a second copy in the catalog used to be
// reset to all-ones) — on every executor, through dump and restore, and on a
// follower that replays the statement log.
func TestInsertKeepsUserWeights(t *testing.T) {
	const setup = `
		CREATE GLOBAL POPULATION P (g TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		INSERT INTO S VALUES ('a', 1), ('a', 2), ('b', 3)`
	const writes = `
		UPDATE SAMPLE S SET WEIGHT = 2.5 WHERE g = 'a';
		INSERT INTO S VALUES ('b', 4)`
	engines := map[string]*Engine{
		"row":      NewEngine(Options{RowExec: true}),
		"vector":   NewEngine(Options{}),
		"shards=2": NewEngine(Options{Shards: 2}),
	}
	for _, e := range engines {
		exec1(t, e, setup)
	}
	primary := engines["vector"]
	boot, g0, err := primary.DumpWithGeneration()
	if err != nil {
		t.Fatal(err)
	}
	follower := restore(t, boot)
	for _, e := range engines {
		exec1(t, e, writes)
	}
	stmts, _, err := primary.DeltaScript(g0)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stmts {
		exec1(t, follower, st.Src)
	}
	engines["follower"] = follower
	dump, err := primary.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	engines["restored"] = restore(t, dump)

	for name, e := range engines {
		if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM P"); got != 7 {
			t.Errorf("%s: CLOSED COUNT(*) = %g, want 7 (2.5 + 2.5 + 1 + 1)", name, got)
		}
		rows := query(t, e, "SELECT CLOSED v, WEIGHT FROM P ORDER BY v")
		want := []float64{2.5, 2.5, 1, 1}
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(want))
		}
		for i, row := range rows {
			if row[1].AsFloat() != want[i] {
				t.Errorf("%s: tuple v=%s has weight %s, want %g", name, row[0], row[1], want[i])
			}
		}
	}
}

// openWorldWith is closeWorld's catalog under a caller-chosen generator
// configuration.
func openWorldWith(t *testing.T, cfg swg.Config) *Engine {
	t.Helper()
	e := NewEngine(Options{Seed: 31, OpenSamples: 2, GeneratedRows: 64, SWG: cfg})
	exec1(t, e, `
		CREATE GLOBAL POPULATION World (grp TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM World);
		CREATE TABLE Truth (grp TEXT, v INT, n INT);
		INSERT INTO Truth VALUES ('a', 1, 50), ('b', 2, 50);
		CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
		CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
		INSERT INTO S VALUES ('a', 1), ('b', 2), ('a', 1), ('b', 2), ('a', 1), ('b', 2)`)
	return e
}

// TestDivergedTrainingIsTheQueryError: a learning rate that drives the loss
// to NaN used to leave a "trained" model in the cache whose NaN outputs
// decoded into NaN floats and garbage ints in the answer. The OPEN read must
// fail with the typed divergence error instead — the same error for every
// later read (divergence is deterministic, so the cached refusal is right),
// until a write to the sample makes the slot stale.
func TestDivergedTrainingIsTheQueryError(t *testing.T) {
	e := openWorldWith(t, swg.Config{
		Hidden: []int{8}, Latent: 2, Epochs: 3, BatchSize: 16, Projections: 4,
		StepsPerEpoch: 4, LR: 1e200,
	})
	const q = "SELECT OPEN grp, COUNT(*), AVG(v) FROM World GROUP BY grp"
	sel, err := sql.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 2; i++ {
		_, err := e.Query(sel)
		if !errors.Is(err, swg.ErrDiverged) {
			t.Fatalf("read %d: err = %v, want swg.ErrDiverged", i, err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("cached refusal changed: %q then %q", first, err)
		}
	}
	if !strings.HasPrefix(first, "swg: training diverged (non-finite loss at epoch ") {
		t.Errorf("error %q does not say where training diverged", first)
	}
	if out := explainText(t, e, q); !strings.Contains(out, "model=failed: "+first) {
		t.Errorf("EXPLAIN does not show the cached refusal:\n%s", out)
	}
	// CLOSED and SEMI-OPEN never needed the generator.
	if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM World"); got != 6 {
		t.Errorf("CLOSED COUNT(*) = %g, want 6", got)
	}
	// A write to the sample makes the cached refusal stale like any model;
	// the retrain diverges again, from scratch.
	exec1(t, e, "INSERT INTO S VALUES ('a', 1)")
	if out := explainText(t, e, q); !strings.Contains(out, "model=stale: sample S grew ") {
		t.Errorf("EXPLAIN after a write:\n%s", out)
	}
	if _, err := e.Query(sel); !errors.Is(err, swg.ErrDiverged) {
		t.Fatalf("after the write: err = %v, want swg.ErrDiverged", err)
	}
}

// TestBatchSizeOneIsAnErrorNotAPanic: SWG.BatchSize 1 used to panic inside
// the query path (BatchNorm.Backward without a training Forward); it is now
// refused when the model is built.
func TestBatchSizeOneIsAnErrorNotAPanic(t *testing.T) {
	e := openWorldWith(t, swg.Config{Hidden: []int{8}, Epochs: 1, BatchSize: 1})
	sel, err := sql.ParseQuery("SELECT OPEN COUNT(*) FROM World")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(sel); err == nil || !strings.Contains(err.Error(), "BatchSize 1") {
		t.Fatalf("err = %v, want a BatchSize 1 refusal", err)
	}
}

func itoa(n int) string {
	return value.Int(int64(n)).String()
}
