package core

import (
	"math"
	"strings"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

func exec1(t *testing.T, e *Engine, src string) {
	t.Helper()
	if _, err := e.ExecScript(src); err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
}

func query(t *testing.T, e *Engine, src string) [][]value.Value {
	t.Helper()
	sel, err := sql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := e.Query(sel)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return res.Rows
}

func scalar(t *testing.T, e *Engine, src string) float64 {
	t.Helper()
	rows := query(t, e, src)
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("query %q: not scalar: %v", src, rows)
	}
	f, err := rows[0][0].Float64()
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}
	return f
}

// smallWorld sets up a two-attribute world with a predicate-biased sample
// and full 2-D metadata.
func smallWorld(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Options{
		Seed:        3,
		OpenSamples: 3,
		SWG: swg.Config{
			Hidden: []int{16, 16}, Latent: 2, Epochs: 8,
			BatchSize: 128, Projections: 12, StepsPerEpoch: 4,
		},
	})
	exec1(t, e, `
		CREATE GLOBAL POPULATION World (grp TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM World WHERE grp = 'a');
		CREATE TABLE Truth (grp TEXT, v INT, n INT);
	`)
	// Population truth: group a has 40 tuples at v=1, group b 60 at v=2.
	if err := e.Ingest("Truth", [][]any{
		{"a", 1, 40}, {"b", 2, 60},
	}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `
		CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
		CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
	`)
	// The sample: only group a tuples.
	rows := make([][]any, 0, 10)
	for i := 0; i < 10; i++ {
		rows = append(rows, []any{"a", 1})
	}
	if err := e.Ingest("S", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestClosedUsesRawSample(t *testing.T) {
	e := smallWorld(t)
	if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM World"); got != 10 {
		t.Errorf("CLOSED COUNT(*) = %g, want 10 (raw sample)", got)
	}
}

func TestSemiOpenFitsMarginals(t *testing.T) {
	e := smallWorld(t)
	if got := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM World"); math.Abs(got-100) > 0.5 {
		t.Errorf("SEMI-OPEN COUNT(*) = %g, want 100", got)
	}
	// Default visibility for population queries is SEMI-OPEN.
	if got := scalar(t, e, "SELECT COUNT(*) FROM World"); math.Abs(got-100) > 0.5 {
		t.Errorf("default-visibility COUNT(*) = %g, want 100", got)
	}
}

func TestSemiOpenCannotCreateGroups(t *testing.T) {
	e := smallWorld(t)
	rows := query(t, e, "SELECT SEMI-OPEN grp, COUNT(*) FROM World GROUP BY grp")
	if len(rows) != 1 || rows[0][0].AsText() != "a" {
		t.Errorf("SEMI-OPEN groups = %v; reweighting must not invent group b", rows)
	}
}

func TestOpenGeneratesMissingGroups(t *testing.T) {
	e := smallWorld(t)
	rows := query(t, e, "SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp")
	groups := map[string]float64{}
	for _, r := range rows {
		f, _ := r[1].Float64()
		groups[r[0].AsText()] = f
	}
	if _, ok := groups["b"]; !ok {
		t.Errorf("OPEN did not generate group b: %v", groups)
	}
}

func TestKnownMechanismShortCircuitsIPF(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (x INT);
		CREATE SAMPLE U AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10);
	`)
	rows := make([][]any, 50)
	for i := range rows {
		rows[i] = []any{i}
	}
	if err := e.Ingest("U", rows); err != nil {
		t.Fatal(err)
	}
	// No marginals exist; the known mechanism still answers SEMI-OPEN:
	// 50 tuples / 0.10 = 500.
	if got := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM P"); got != 500 {
		t.Errorf("HT COUNT(*) = %g, want 500", got)
	}
}

func TestSemiOpenWithoutMechanismOrMarginalsFails(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (x INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
	`)
	if err := e.Ingest("S", [][]any{{1}}); err != nil {
		t.Fatal(err)
	}
	sel, _ := sql.ParseQuery("SELECT SEMI-OPEN COUNT(*) FROM P")
	if _, err := e.Query(sel); err == nil {
		t.Error("SEMI-OPEN without mechanism or marginals should fail")
	}
}

func TestQueryPopulationMarginalScope(t *testing.T) {
	// A derived population with its own marginals is fitted directly
	// (Fig 3 bottom path).
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (region TEXT, kind TEXT);
		CREATE POPULATION North AS (SELECT * FROM P WHERE region = 'n');
		CREATE SAMPLE S AS (SELECT * FROM P);
		CREATE TABLE NT (kind TEXT, n INT);
	`)
	if err := e.Ingest("S", [][]any{
		{"n", "x"}, {"n", "y"}, {"s", "x"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("NT", [][]any{{"x", 30}, {"y", 10}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `CREATE METADATA North_M1 AS (SELECT kind, n FROM NT)`)
	// Query the derived population: the sub-sample {(n,x),(n,y)} is IPF'd
	// to the North marginal {x:30, y:10}.
	if got := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM North"); math.Abs(got-40) > 0.5 {
		t.Errorf("North COUNT(*) = %g, want 40", got)
	}
	rows := query(t, e, "SELECT SEMI-OPEN kind, COUNT(*) FROM North GROUP BY kind ORDER BY kind")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	x, _ := rows[0][1].Float64()
	y, _ := rows[1][1].Float64()
	if math.Abs(x-30) > 0.5 || math.Abs(y-10) > 0.5 {
		t.Errorf("North per-kind = %g, %g; want 30, 10", x, y)
	}
}

func TestGlobalMarginalScopeWithView(t *testing.T) {
	// A derived population without its own marginals uses the GP's and
	// filters through the view (Fig 3 left path).
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (region TEXT, kind TEXT);
		CREATE POPULATION North AS (SELECT * FROM P WHERE region = 'n');
		CREATE SAMPLE S AS (SELECT * FROM P);
		CREATE TABLE GT (region TEXT, n INT);
	`)
	if err := e.Ingest("S", [][]any{
		{"n", "x"}, {"s", "x"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("GT", [][]any{{"n", 70}, {"s", 30}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `CREATE METADATA P_M1 AS (SELECT region, n FROM GT)`)
	if got := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM North"); math.Abs(got-70) > 0.5 {
		t.Errorf("North via GP marginals = %g, want 70", got)
	}
}

func TestSampleSelectionPrefersCoveringSchema(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (a TEXT, b INT);
		CREATE SAMPLE Small (a TEXT) AS (SELECT a FROM P);
		CREATE SAMPLE Full AS (SELECT * FROM P);
		CREATE TABLE T (a TEXT, n INT);
	`)
	// Small has more rows but lacks attribute b.
	rowsSmall := make([][]any, 20)
	for i := range rowsSmall {
		rowsSmall[i] = []any{"x"}
	}
	if err := e.Ingest("Small", rowsSmall); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("Full", [][]any{{"x", 1}, {"x", 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("T", [][]any{{"x", 10}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `CREATE METADATA P_M1 AS (SELECT a, n FROM T)`)
	// A query touching b must route to Full despite Small being larger.
	if got := scalar(t, e, "SELECT SEMI-OPEN SUM(b) FROM P"); math.Abs(got-15) > 0.5 {
		t.Errorf("SUM(b) = %g, want 15 (10 total weight × mean 1.5)", got)
	}
	// A query touching only a routes to the bigger sample (same answer
	// either way here, but it must not error).
	_ = scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM P")

	sel, _ := sql.ParseQuery("SELECT SEMI-OPEN c FROM P")
	if _, err := e.Query(sel); err == nil {
		t.Error("query over attribute no sample covers should fail")
	}
}

func TestVisibilityOnNonPopulationsRejected(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (a INT); CREATE GLOBAL POPULATION P (a INT); CREATE SAMPLE S AS (SELECT * FROM P)`)
	for _, q := range []string{
		"SELECT OPEN a FROM T",
		"SELECT SEMI-OPEN a FROM T",
		"SELECT OPEN a FROM S",
		"SELECT SEMI-OPEN a FROM S",
	} {
		sel, _ := sql.ParseQuery(q)
		if _, err := e.Query(sel); err == nil {
			t.Errorf("%q should be rejected", q)
		}
	}
	// CLOSED on table/sample is fine.
	for _, q := range []string{"SELECT CLOSED a FROM T", "SELECT CLOSED a FROM S"} {
		sel, _ := sql.ParseQuery(q)
		if _, err := e.Query(sel); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

func TestUpdateWeightsAffectsClosedQueries(t *testing.T) {
	e := smallWorld(t)
	exec1(t, e, `UPDATE SAMPLE S SET WEIGHT = 3`)
	if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM World"); got != 30 {
		t.Errorf("CLOSED after UPDATE WEIGHT = %g, want 30", got)
	}
	// Conditional update.
	exec1(t, e, `UPDATE SAMPLE S SET WEIGHT = 1 WHERE v = 1`)
	if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM World"); got != 10 {
		t.Errorf("CLOSED after conditional update = %g, want 10", got)
	}
	// Negative weights rejected.
	if _, err := e.ExecScript(`UPDATE SAMPLE S SET WEIGHT = -1`); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestInsertAndCreateTableAsSelect(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (a INT, b TEXT)`)
	exec1(t, e, `INSERT INTO T VALUES (1, 'x'), (2, 'y')`)
	exec1(t, e, `INSERT INTO T (b, a) VALUES ('z', 3)`)
	if got := scalar(t, e, "SELECT COUNT(*) FROM T"); got != 3 {
		t.Errorf("COUNT = %g", got)
	}
	exec1(t, e, `CREATE TABLE T2 AS (SELECT a FROM T WHERE a > 1)`)
	if got := scalar(t, e, "SELECT COUNT(*) FROM T2"); got != 2 {
		t.Errorf("CTAS COUNT = %g", got)
	}
	// Arity and column errors.
	if _, err := e.ExecScript(`INSERT INTO T VALUES (1)`); err == nil {
		t.Error("short insert should fail")
	}
	if _, err := e.ExecScript(`INSERT INTO T (a, zz) VALUES (1, 2)`); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := e.ExecScript(`INSERT INTO Missing VALUES (1)`); err == nil {
		t.Error("insert into missing relation should fail")
	}
}

// TestCreateTableAsKeepsColumnKinds: a plain column item keeps its source
// column's kind, aliased or not and whatever the first row holds; a computed
// item takes the kind of its first non-NULL value, FLOAT when there is none.
func TestCreateTableAsKeepsColumnKinds(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (a TEXT, n INT); INSERT INTO T VALUES (NULL, 1), ('x', 2)`)
	exec1(t, e, `CREATE TABLE U AS SELECT a AS b FROM T`)
	exec1(t, e, `CREATE TABLE W AS SELECT n AS m FROM T WHERE n > 5`)
	exec1(t, e, `CREATE TABLE X AS SELECT n * 2 AS d FROM T WHERE a IS NOT NULL OR n > 1`)
	exec1(t, e, `CREATE TABLE N (n INT); INSERT INTO N VALUES (NULL), (3)`)
	exec1(t, e, `CREATE TABLE Y AS SELECT n * 2 AS d FROM N`)
	exec1(t, e, `CREATE TABLE Z AS SELECT n * 2 AS d FROM N WHERE n IS NULL`)
	for _, c := range []struct {
		table, col string
		want       value.Kind
	}{
		{"U", "b", value.KindText},
		{"W", "m", value.KindInt},
		{"X", "d", value.KindInt},
		{"Y", "d", value.KindInt},
		{"Z", "d", value.KindFloat},
	} {
		tbl, ok := e.Catalog().Table(c.table)
		if !ok {
			t.Fatalf("no table %s", c.table)
		}
		if k, _ := tbl.Schema().Kind(c.col); k != c.want {
			t.Errorf("%s.%s is %s, want %s", c.table, c.col, k, c.want)
		}
	}
	if got := query(t, e, "SELECT b FROM U"); len(got) != 2 || !got[0][0].IsNull() || got[1][0].AsText() != "x" {
		t.Errorf("U = %v, want NULL, 'x'", got)
	}
}

func TestAugmentMarginalsAddsUncoveredAttrs(t *testing.T) {
	sc := schema.MustNew(
		schema.Attribute{Name: "grp", Kind: value.KindText},
		schema.Attribute{Name: "v", Kind: value.KindInt},
	)
	tbl := table.New("s", sc)
	for i := 0; i < 4; i++ {
		if err := tbl.Append([]value.Value{value.Text("a"), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := marginal.New("m", []string{"grp"})
	_ = m.Add([]value.Value{value.Text("a")}, 100)
	out, err := AugmentMarginals(tbl, []*marginal.Marginal{m})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("augmented set size = %d, want 2", len(out))
	}
	// The sample-derived v marginal is scaled to the population total.
	if math.Abs(out[1].Total()-100) > 1e-9 {
		t.Errorf("augmented marginal total = %g, want 100", out[1].Total())
	}
	if _, err := AugmentMarginals(tbl, nil); err == nil {
		t.Error("empty marginal set should fail")
	}
}

func TestSetSampleMechanism(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE GLOBAL POPULATION P (x INT); CREATE SAMPLE S AS (SELECT * FROM P)`)
	if err := e.Ingest("S", [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetSampleMechanism("S", mechanism.Uniform{Percent: 50}); err != nil {
		t.Fatal(err)
	}
	if got := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM P"); got != 4 {
		t.Errorf("after SetSampleMechanism COUNT = %g, want 4", got)
	}
	if err := e.SetSampleMechanism("Missing", mechanism.Uniform{Percent: 50}); err == nil {
		t.Error("missing sample should fail")
	}
}

func TestStratifiedDeclaredMechanismFallsBackToIPF(t *testing.T) {
	// STRATIFIED declared via SQL has no computed probabilities: SEMI-OPEN
	// must fall back to IPF when marginals exist.
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT);
		CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON g PERCENT 10);
		CREATE TABLE T (g TEXT, n INT);
	`)
	if err := e.Ingest("S", [][]any{{"a"}, {"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("T", [][]any{{"a", 25}, {"b", 75}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `CREATE METADATA P_M1 AS (SELECT g, n FROM T)`)
	if got := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM P"); math.Abs(got-100) > 0.5 {
		t.Errorf("IPF fallback COUNT = %g, want 100", got)
	}
}

func TestDropInvalidatesAndRemoves(t *testing.T) {
	e := smallWorld(t)
	exec1(t, e, `DROP METADATA World_M2`)
	// Still works with the remaining marginal.
	if got := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM World"); math.Abs(got-100) > 0.5 {
		t.Errorf("after drop COUNT = %g", got)
	}
	exec1(t, e, `DROP SAMPLE S`)
	sel, _ := sql.ParseQuery("SELECT SEMI-OPEN COUNT(*) FROM World")
	if _, err := e.Query(sel); err == nil {
		t.Error("query without any sample should fail")
	}
}

func TestExecScriptReportsStatementIndex(t *testing.T) {
	e := NewEngine(Options{})
	_, err := e.ExecScript(`CREATE TABLE T (a INT); INSERT INTO T VALUES ('x')`)
	if err == nil || !strings.Contains(err.Error(), "statement 2") {
		t.Errorf("error should name the failing statement: %v", err)
	}
}

func TestIngestTypeMismatch(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (a INT)`)
	if err := e.Ingest("T", [][]any{{"not an int"}}); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := e.Ingest("Missing", [][]any{{1}}); err == nil {
		t.Error("missing relation should fail")
	}
}
