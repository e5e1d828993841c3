package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/value"
)

func explainText(t *testing.T, e *Engine, q string) string {
	t.Helper()
	res, err := e.ExecScript("EXPLAIN " + q)
	if err != nil {
		t.Fatalf("explain %q: %v", q, err)
	}
	var b strings.Builder
	for _, row := range res[0].Rows {
		b.WriteString(row[0].AsText())
		b.WriteString("=")
		b.WriteString(row[1].AsText())
		b.WriteString("\n")
	}
	return b.String()
}

func TestExplainPopulationPlan(t *testing.T) {
	e := smallWorld(t)
	out := explainText(t, e, "SELECT SEMI-OPEN COUNT(*) FROM World")
	for _, want := range []string{
		"kind=global population",
		"visibility=SEMI-OPEN",
		"sample=S (10 tuples)",
		"mechanism=unknown",
		"marginal scope=query population",
		"technique=IPF reweighting against marginals",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	out = explainText(t, e, "SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp")
	if !strings.Contains(out, "technique=M-SWG generation") {
		t.Errorf("OPEN explain:\n%s", out)
	}
	out = explainText(t, e, "SELECT COUNT(*) FROM World")
	if !strings.Contains(out, "visibility=SEMI-OPEN (default)") {
		t.Errorf("default visibility explain:\n%s", out)
	}
}

// TestExplainOpenModelRow: EXPLAIN on an OPEN query says what the generator
// is — what the next read will have to train, or what the cached model's
// training ended at — in text that is a pure function of the statements and
// options (no wall time), so equal engines explain equally.
func TestExplainOpenModelRow(t *testing.T) {
	const q = "SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp"
	e := smallWorld(t) // Epochs 8, StepsPerEpoch 4
	if out := explainText(t, e, q); !strings.Contains(out, "model=untrained (next OPEN read trains 8 epochs × 4 steps)\n") {
		t.Errorf("before the first OPEN read:\n%s", out)
	}
	if out := explainText(t, e, "SELECT SEMI-OPEN COUNT(*) FROM World"); strings.Contains(out, "model=") {
		t.Errorf("only OPEN queries have a model row:\n%s", out)
	}
	query(t, e, q)
	trained := explainText(t, e, q)
	if !strings.Contains(trained, "model=cached: 32 steps, final loss ") {
		t.Errorf("after the first OPEN read:\n%s", trained)
	}
	// A second engine fed the same statements and reads agrees byte for byte.
	twin := smallWorld(t)
	query(t, twin, q)
	if got := explainText(t, twin, q); got != trained {
		t.Errorf("EXPLAIN differs between equal engines:\n%s\nvs\n%s", got, trained)
	}
	exec1(t, e, "INSERT INTO S VALUES ('a', 1)")
	if out := explainText(t, e, q); !strings.Contains(out, "model=stale: sample S grew 10 → 11 rows (next OPEN read trains 8 epochs × 4 steps)\n") {
		t.Errorf("after a write to the model's sample:\n%s", out)
	}
}

func TestExplainTableAndSample(t *testing.T) {
	e := smallWorld(t)
	out := explainText(t, e, "SELECT grp FROM Truth")
	if !strings.Contains(out, "kind=auxiliary table") {
		t.Errorf("table explain:\n%s", out)
	}
	out = explainText(t, e, "SELECT CLOSED grp FROM S")
	if !strings.Contains(out, "kind=sample") {
		t.Errorf("sample explain:\n%s", out)
	}
	if _, err := e.ExecScript("EXPLAIN SELECT x FROM Missing"); err == nil {
		t.Error("explain over missing relation should fail")
	}
}

func TestExplainKnownMechanism(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (x INT);
		CREATE SAMPLE U AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10);
	`)
	if err := e.Ingest("U", [][]any{{1}}); err != nil {
		t.Fatal(err)
	}
	out := explainText(t, e, "SELECT SEMI-OPEN COUNT(*) FROM P")
	if !strings.Contains(out, "Horvitz") {
		t.Errorf("known-mechanism explain:\n%s", out)
	}
	if !strings.Contains(out, "mechanism=UNIFORM PERCENT 10") {
		t.Errorf("mechanism name missing:\n%s", out)
	}
}

// TestExplainStratifiedWithoutProbabilities: a STRATIFIED design declared
// without a probability list has no inclusion probabilities, so SEMI-OPEN
// falls back to IPF, and EXPLAIN names the mechanism and says why.
func TestExplainStratifiedWithoutProbabilities(t *testing.T) {
	e := smallWorld(t)
	exec1(t, e, "ALTER SAMPLE S USING MECHANISM STRATIFIED ON grp PERCENT 20")
	out := explainText(t, e, "SELECT SEMI-OPEN COUNT(*) FROM World")
	for _, want := range []string{
		"mechanism=STRATIFIED ON grp PERCENT 20\n",
		"technique=IPF reweighting against marginals: mechanism STRATIFIED ON grp PERCENT 20 declares no inclusion probabilities\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// With a probability list the same design is known: Horvitz–Thompson.
	exec1(t, e, "ALTER SAMPLE S USING MECHANISM STRATIFIED ON grp PERCENT 20 WITH PROBABILITIES ('a' 0.25)")
	if out := explainText(t, e, "SELECT SEMI-OPEN COUNT(*) FROM World"); !strings.Contains(out, "technique=inverse inclusion probability") {
		t.Errorf("stratified design with probabilities:\n%s", out)
	}
}

func TestCopyCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	csvBody := "a,b,c\n1,hello,2.5\n2,world,\n"
	if err := os.WriteFile(path, []byte(csvBody), 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (a INT, b TEXT, c FLOAT)`)
	exec1(t, e, `COPY T FROM '`+path+`' WITH HEADER`)
	if got := scalar(t, e, "SELECT COUNT(*) FROM T"); got != 2 {
		t.Errorf("COPY loaded %g rows", got)
	}
	// Empty field loads as NULL.
	rows := query(t, e, "SELECT c FROM T WHERE a = 2")
	if len(rows) != 1 || !rows[0][0].IsNull() {
		t.Errorf("empty CSV field = %v, want NULL", rows)
	}
	// Without HEADER the header row fails type parsing.
	exec1(t, e, `CREATE TABLE T2 (a INT, b TEXT, c FLOAT)`)
	if _, err := e.ExecScript(`COPY T2 FROM '` + path + `'`); err == nil {
		t.Error("COPY without HEADER should choke on the header row")
	}
	if _, err := e.ExecScript(`COPY T FROM '/nonexistent/file.csv'`); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := e.ExecScript(`COPY Missing FROM '` + path + `'`); err == nil {
		t.Error("missing relation should fail")
	}
}

func TestCopyRejectsRaggedRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ragged.csv")
	if err := os.WriteFile(path, []byte("1,x\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (a INT, b TEXT)`)
	if _, err := e.ExecScript(`COPY T FROM '` + path + `'`); err == nil {
		t.Error("ragged CSV should fail")
	}
}

func TestUnionSamplesCombinesCoverage(t *testing.T) {
	// Two disjoint samples each cover part of the population; the union
	// reaches marginal cells neither could alone.
	e := NewEngine(Options{UnionSamples: true})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT);
		CREATE SAMPLE SA AS (SELECT * FROM P WHERE g = 'a');
		CREATE SAMPLE SB AS (SELECT * FROM P WHERE g = 'b');
		CREATE TABLE T (g TEXT, n INT);
	`)
	if err := e.Ingest("SA", [][]any{{"a"}, {"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("SB", [][]any{{"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("T", [][]any{{"a", 30}, {"b", 70}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `CREATE METADATA P_M1 AS (SELECT g, n FROM T)`)
	rows := query(t, e, "SELECT SEMI-OPEN g, COUNT(*) FROM P GROUP BY g ORDER BY g")
	if len(rows) != 2 {
		t.Fatalf("union answered %d groups, want 2: %v", len(rows), rows)
	}
	av, _ := rows[0][1].Float64()
	bv, _ := rows[1][1].Float64()
	if av != 30 || bv != 70 {
		t.Errorf("union IPF = a:%g b:%g, want 30/70", av, bv)
	}
	// Without union, the larger sample (SA) answers alone and group b is a
	// false negative.
	e2 := NewEngine(Options{})
	exec1(t, e2, `
		CREATE GLOBAL POPULATION P (g TEXT);
		CREATE SAMPLE SA AS (SELECT * FROM P WHERE g = 'a');
		CREATE SAMPLE SB AS (SELECT * FROM P WHERE g = 'b');
		CREATE TABLE T (g TEXT, n INT);
	`)
	if err := e2.Ingest("SA", [][]any{{"a"}, {"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Ingest("SB", [][]any{{"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Ingest("T", [][]any{{"a", 30}, {"b", 70}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ExecScript(`CREATE METADATA P_M1 AS (SELECT g, n FROM T)`); err != nil {
		t.Fatal(err)
	}
	rows = query(t, e2, "SELECT SEMI-OPEN g, COUNT(*) FROM P GROUP BY g")
	if len(rows) != 1 || rows[0][0].AsText() != "a" {
		t.Errorf("single-sample answer = %v, want only group a", rows)
	}
}

func TestUnionSamplesProjectsToCommonSchema(t *testing.T) {
	e := NewEngine(Options{UnionSamples: true})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT, v INT);
		CREATE SAMPLE Full AS (SELECT * FROM P);
		CREATE SAMPLE Slim (g TEXT) AS (SELECT g FROM P);
		CREATE TABLE T (g TEXT, n INT);
	`)
	if err := e.Ingest("Full", [][]any{{"a", 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("Slim", [][]any{{"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("T", [][]any{{"a", 10}, {"b", 20}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `CREATE METADATA P_M1 AS (SELECT g, n FROM T)`)
	// Query over g only: both samples cover it; union projects to (g).
	rows := query(t, e, "SELECT SEMI-OPEN g, COUNT(*) FROM P GROUP BY g ORDER BY g")
	if len(rows) != 2 {
		t.Fatalf("projected union groups = %v", rows)
	}
	// Query over v: only Full covers it; union degrades to that member.
	if got := scalar(t, e, "SELECT SEMI-OPEN SUM(v) FROM P"); got == 0 {
		t.Error("v query should still answer from the covering sample")
	}
}

func TestUnionSeedWeightsConcatenate(t *testing.T) {
	e := NewEngine(Options{UnionSamples: true})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT);
		CREATE SAMPLE SA AS (SELECT * FROM P);
		CREATE SAMPLE SB AS (SELECT * FROM P);
	`)
	if err := e.Ingest("SA", [][]any{{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("SB", [][]any{{"b"}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `UPDATE SAMPLE SB SET WEIGHT = 5`)
	// CLOSED over the union uses the concatenated seed weights: 1 + 5.
	if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM P"); got != 6 {
		t.Errorf("union CLOSED COUNT = %g, want 6", got)
	}
}

func TestExplainParsesThroughPublicScript(t *testing.T) {
	e := smallWorld(t)
	out, err := e.ExecScript("EXPLAIN SELECT OPEN COUNT(*) FROM World")
	if err != nil {
		t.Fatal(err)
	}
	if res := out[0]; len(res.Rows) == 0 || res.Rows[0][0].Kind() != value.KindText {
		t.Errorf("explain result malformed: %v", res.Rows)
	}
}
