package mosaic_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"mosaic"
	"mosaic/internal/dataset"
	"mosaic/internal/value"
)

// buildMigrantsDB reproduces the paper's Sec 2 setup: a migrants population,
// Eurostat-style marginals, and a Yahoo-only biased sample.
func buildMigrantsDB(t testing.TB, opts *mosaic.Options) (*mosaic.DB, float64) {
	t.Helper()
	if opts == nil {
		opts = &mosaic.Options{
			Seed:        7,
			OpenSamples: 3,
			SWG: mosaic.SWGConfig{
				Hidden:      []int{32, 32},
				Latent:      4,
				Epochs:      6,
				Projections: 24,
				BatchSize:   200,
			},
		}
	}
	db := mosaic.Open(opts)

	pop := dataset.Migrants(dataset.MigrantsConfig{N: 8000, Seed: 11})

	err := db.Exec(`
		CREATE TEMPORARY TABLE Eurostat (country TEXT, email TEXT, reported_count INT);
		CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT, age INT);
		CREATE SAMPLE YahooMigrants AS
			(SELECT * FROM EuropeMigrants WHERE email = 'Yahoo');
	`)
	if err != nil {
		t.Fatalf("setup DDL: %v", err)
	}

	// Build ground-truth per-(country,email) counts from the synthetic
	// population and load them into the Eurostat auxiliary table.
	counts := map[[2]string]int64{}
	var popTotal float64
	popTable := pop
	for i := 0; i < popTable.Len(); i++ {
		row := popTable.Row(i)
		k := [2]string{row[0].AsText(), row[1].AsText()}
		counts[k]++
		popTotal++
	}
	// Sort cells so the statement stream (and hence the encoder's
	// categorical layout) is identical across runs — determinism is defined
	// over identical statement streams.
	var keys [][2]string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var rows [][]any
	for _, k := range keys {
		rows = append(rows, []any{k[0], k[1], counts[k]})
	}
	if err := db.Ingest("Eurostat", rows); err != nil {
		t.Fatalf("ingest eurostat: %v", err)
	}

	err = db.Exec(`
		CREATE METADATA EuropeMigrants_M1 AS
			(SELECT country, reported_count FROM Eurostat);
		CREATE METADATA EuropeMigrants_M2 AS
			(SELECT email, reported_count FROM Eurostat);
	`)
	if err != nil {
		t.Fatalf("metadata: %v", err)
	}

	// Ingest the biased sample: all Yahoo users of the population.
	var sample [][]any
	for i := 0; i < popTable.Len(); i++ {
		row := popTable.Row(i)
		if row[1].AsText() == "Yahoo" {
			sample = append(sample, []any{row[0].AsText(), row[1].AsText(), row[2].AsInt()})
		}
	}
	if err := db.Ingest("YahooMigrants", sample); err != nil {
		t.Fatalf("ingest sample: %v", err)
	}
	return db, popTotal
}

func TestMigrantsClosedQuery(t *testing.T) {
	db, _ := buildMigrantsDB(t, nil)
	res, err := db.Query(`SELECT CLOSED country, email, COUNT(*) FROM EuropeMigrants GROUP BY country, email`)
	if err != nil {
		t.Fatalf("closed query: %v", err)
	}
	// Closed answers only see Yahoo tuples, with raw (weight-1) counts.
	for _, row := range res.Rows {
		if got := row[1].AsText(); got != "Yahoo" {
			t.Errorf("closed answer contains non-sample provider %q", got)
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("closed query returned no rows")
	}
}

func TestMigrantsSemiOpenQuery(t *testing.T) {
	db, popTotal := buildMigrantsDB(t, nil)
	// SEMI-OPEN total count should match the population size implied by
	// the marginals (IPF drives the weighted sample onto them).
	got, err := db.Scalar(`SELECT SEMI-OPEN COUNT(*) FROM EuropeMigrants`)
	if err != nil {
		t.Fatalf("semi-open query: %v", err)
	}
	if math.Abs(got-popTotal)/popTotal > 0.01 {
		t.Errorf("SEMI-OPEN COUNT(*) = %.1f, want ≈ %.0f", got, popTotal)
	}

	// Per-country counts should match the marginal exactly (IPF fits the
	// country marginal), even though the sample is Yahoo-only.
	res, err := db.Query(`SELECT SEMI-OPEN country, COUNT(*) AS c FROM EuropeMigrants GROUP BY country ORDER BY country`)
	if err != nil {
		t.Fatalf("semi-open group query: %v", err)
	}
	truth, err := db.Query(`SELECT country, SUM(reported_count) AS c FROM Eurostat GROUP BY country ORDER BY country`)
	if err != nil {
		t.Fatalf("truth query: %v", err)
	}
	if len(res.Rows) != len(truth.Rows) {
		t.Fatalf("got %d countries, want %d", len(res.Rows), len(truth.Rows))
	}
	for i := range res.Rows {
		got, _ := res.Rows[i][1].Float64()
		want, _ := truth.Rows[i][1].Float64()
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("country %s: SEMI-OPEN count %.1f, want ≈ %.1f", res.Rows[i][0], got, want)
		}
	}

	// SEMI-OPEN cannot invent providers: the email group-by still only has
	// Yahoo (the paper's first example query).
	res, err = db.Query(`SELECT SEMI-OPEN country, email, COUNT(*) FROM EuropeMigrants GROUP BY country, email`)
	if err != nil {
		t.Fatalf("semi-open 2-group query: %v", err)
	}
	for _, row := range res.Rows {
		if row[1].AsText() != "Yahoo" {
			t.Errorf("SEMI-OPEN generated provider %q; reweighting must not create tuples", row[1].AsText())
		}
	}
}

func TestMigrantsOpenQueryGeneratesMissingProviders(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	db, _ := buildMigrantsDB(t, nil)
	res, err := db.Query(`SELECT OPEN email, COUNT(*) FROM EuropeMigrants GROUP BY email`)
	if err != nil {
		t.Fatalf("open query: %v", err)
	}
	providers := map[string]bool{}
	for _, row := range res.Rows {
		providers[row[0].AsText()] = true
	}
	// The paper's second example: OPEN answers include providers missing
	// from the Yahoo-only sample (e.g. AOL/Gmail).
	nonYahoo := 0
	for p := range providers {
		if p != "Yahoo" {
			nonYahoo++
		}
	}
	if nonYahoo == 0 {
		t.Errorf("OPEN query generated no missing providers; got %v", providers)
	}
}

func TestVisibilityParsingVariants(t *testing.T) {
	db, _ := buildMigrantsDB(t, nil)
	for _, q := range []string{
		`SELECT SEMI-OPEN COUNT(*) FROM EuropeMigrants`,
		`SELECT SEMIOPEN COUNT(*) FROM EuropeMigrants`,
		`SELECT SEMI_OPEN COUNT(*) FROM EuropeMigrants`,
	} {
		if _, err := db.Scalar(q); err != nil {
			t.Errorf("query %q: %v", q, err)
		}
	}
}

func TestOpenRejectedWithoutMarginals(t *testing.T) {
	db := mosaic.Open(nil)
	err := db.Exec(`
		CREATE GLOBAL POPULATION P (a INT, b INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("S", [][]any{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query(`SELECT OPEN COUNT(*) FROM P`)
	if err == nil || !strings.Contains(err.Error(), "marginals") {
		t.Errorf("expected marginals error, got %v", err)
	}
}

func TestValueRoundTripThroughResult(t *testing.T) {
	db := mosaic.Open(nil)
	if err := db.Exec(`CREATE TABLE t (a INT, b TEXT, c FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO t VALUES (1, 'x', 2.5), (2, 'y', -1.25)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT a, b, c FROM t ORDER BY a DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 2 || res.Rows[0][1].AsText() != "y" {
		t.Errorf("unexpected first row %v", res.Rows[0])
	}
	if res.Rows[1][2].Kind() != value.KindFloat || res.Rows[1][2].AsFloat() != 2.5 {
		t.Errorf("unexpected float cell %v", res.Rows[1][2])
	}
}

func TestPublicAPIExplain(t *testing.T) {
	db, _ := buildMigrantsDB(t, nil)
	results, err := db.Run(`EXPLAIN SELECT SEMI-OPEN COUNT(*) FROM EuropeMigrants`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0] == nil {
		t.Fatalf("explain results = %v", results)
	}
	var sawTechnique bool
	for _, row := range results[0].Rows {
		if row[0].AsText() == "technique" && strings.Contains(row[1].AsText(), "IPF") {
			sawTechnique = true
		}
	}
	if !sawTechnique {
		t.Errorf("explain output missing IPF technique: %v", results[0])
	}
}

func TestPublicAPIDistinct(t *testing.T) {
	db := mosaic.Open(nil)
	if err := db.Exec(`CREATE TABLE t (a TEXT); INSERT INTO t VALUES ('x'), ('x'), ('y')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT DISTINCT a FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("DISTINCT rows = %v", res.Rows)
	}
}

func TestPublicAPIUnionSamples(t *testing.T) {
	db := mosaic.Open(&mosaic.Options{UnionSamples: true})
	err := db.Exec(`
		CREATE GLOBAL POPULATION P (g TEXT);
		CREATE SAMPLE A AS (SELECT * FROM P WHERE g = 'a');
		CREATE SAMPLE B AS (SELECT * FROM P WHERE g = 'b');
		CREATE TABLE T (g TEXT, n INT);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("A", [][]any{{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("B", [][]any{{"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("T", [][]any{{"a", 1}, {"b", 3}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`CREATE METADATA P_M1 AS (SELECT g, n FROM T)`); err != nil {
		t.Fatal(err)
	}
	got, err := db.Scalar(`SELECT SEMI-OPEN COUNT(*) FROM P`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 0.01 {
		t.Errorf("union COUNT = %g, want 4", got)
	}
}

func TestNewMarginalHelper(t *testing.T) {
	m, err := mosaic.NewMarginal("m", []string{"c", "e"}, [][]any{
		{"UK", "Yahoo", 10},
		{"UK", "AOL", 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != 12.5 || len(m.Cells()) != 2 {
		t.Errorf("marginal total=%g cells=%d", m.Total(), len(m.Cells()))
	}
	if _, err := mosaic.NewMarginal("m", []string{"c"}, [][]any{{"UK"}}); err == nil {
		t.Error("cell without count should fail")
	}
	if _, err := mosaic.NewMarginal("m", []string{"c"}, [][]any{{"UK", "not-a-number"}}); err == nil {
		t.Error("non-numeric count should fail")
	}
}

func TestAddMarginalViaAPI(t *testing.T) {
	db := mosaic.Open(nil)
	if err := db.Exec(`
		CREATE GLOBAL POPULATION P (g TEXT);
		CREATE SAMPLE S AS (SELECT * FROM P);
	`); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("S", [][]any{{"a"}, {"b"}}); err != nil {
		t.Fatal(err)
	}
	m, err := mosaic.NewMarginal("P_g", []string{"g"}, [][]any{{"a", 6}, {"b", 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddMarginal("P", m); err != nil {
		t.Fatal(err)
	}
	got, err := db.Scalar(`SELECT SEMI-OPEN COUNT(*) FROM P`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 0.01 {
		t.Errorf("COUNT via API marginal = %g", got)
	}
}

func TestTableAccessor(t *testing.T) {
	db := mosaic.Open(nil)
	if err := db.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("t")
	if err != nil || tbl.Len() != 1 {
		t.Errorf("Table accessor: %v, %v", tbl, err)
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table should fail")
	}
}

func TestScalarErrors(t *testing.T) {
	db := mosaic.Open(nil)
	if err := db.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scalar(`SELECT a FROM t`); err == nil {
		t.Error("multi-row scalar should fail")
	}
	if _, err := db.Scalar(`SELECT bad syntax`); err == nil {
		t.Error("parse error should propagate")
	}
}

func TestDeterminismAcrossDBs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains generators")
	}
	run := func() [][]mosaic.Value {
		db, _ := buildMigrantsDB(t, nil)
		res, err := db.Query(`SELECT OPEN email, COUNT(*) FROM EuropeMigrants GROUP BY email ORDER BY email`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if value.Compare(a[i][j], b[i][j]) != 0 {
				t.Errorf("row %d col %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestPublicAPIDumpRestore(t *testing.T) {
	db, _ := buildMigrantsDB(t, nil)
	script, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	db2 := mosaic.Open(&mosaic.Options{Seed: 7})
	if err := db2.Exec(script); err != nil {
		t.Fatalf("restore: %v", err)
	}
	a, err := db.Scalar(`SELECT SEMI-OPEN COUNT(*) FROM EuropeMigrants`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.Scalar(`SELECT SEMI-OPEN COUNT(*) FROM EuropeMigrants`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-6 {
		t.Errorf("restored SEMI-OPEN count %g vs %g", b, a)
	}
}

// TestPublicAPIWorkersDeterminism pins the package-level guarantee: equal
// seeds give identical OPEN answers for any Options.Workers value, and a DB
// serves concurrent queries safely (run with -race).
func TestPublicAPIWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a generator")
	}
	build := func(workers int) *mosaic.DB {
		db, _ := buildMigrantsDB(t, &mosaic.Options{
			Seed:        7,
			OpenSamples: 3,
			Workers:     workers,
			SWG: mosaic.SWGConfig{
				Hidden:      []int{32, 32},
				Latent:      4,
				Epochs:      6,
				Projections: 24,
				BatchSize:   200,
			},
		})
		return db
	}
	const q = `SELECT OPEN email, COUNT(*) FROM EuropeMigrants GROUP BY email ORDER BY email`
	render := func(res *mosaic.Result) string {
		var b strings.Builder
		for _, row := range res.Rows {
			for _, v := range row {
				b.WriteString(v.String())
				b.WriteByte('|')
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	ref := ""
	for _, workers := range []int{1, 4, 8} {
		db := build(workers)
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := render(res)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("workers=%d OPEN answer differs from workers=1:\n%s\nvs\n%s", workers, got, ref)
		}
	}

	// Concurrent clients on one DB must agree with each other.
	db := build(4)
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := render(first)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := db.Query(q)
			if err != nil {
				errs[c] = err
				return
			}
			if got := render(res); got != want {
				errs[c] = fmt.Errorf("client %d answer diverged", c)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
