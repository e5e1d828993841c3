package sql

import (
	"strings"
	"testing"

	"mosaic/internal/expr"
	"mosaic/internal/mechanism"
	"mosaic/internal/value"
)

func parseOne(t *testing.T, src string) Statement {
	t.Helper()
	st, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("ParseStatement(%q): %v", src, err)
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	sel := parseOne(t, "SELECT a, b FROM t WHERE a > 1").(*Select)
	if sel.From != "t" || len(sel.Items) != 2 {
		t.Fatalf("select parse: %+v", sel)
	}
	if sel.Visibility != VisibilityDefault {
		t.Errorf("visibility = %v", sel.Visibility)
	}
	if sel.Where == nil || sel.Where.String() != "(a > 1)" {
		t.Errorf("where = %v", sel.Where)
	}
	if sel.Limit != -1 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestParseVisibilities(t *testing.T) {
	cases := map[string]Visibility{
		"SELECT CLOSED a FROM t":    VisibilityClosed,
		"SELECT SEMI-OPEN a FROM t": VisibilitySemiOpen,
		"SELECT SEMIOPEN a FROM t":  VisibilitySemiOpen,
		"SELECT SEMI_OPEN a FROM t": VisibilitySemiOpen,
		"SELECT OPEN a FROM t":      VisibilityOpen,
		"SELECT a FROM t":           VisibilityDefault,
	}
	for src, want := range cases {
		sel := parseOne(t, src).(*Select)
		if sel.Visibility != want {
			t.Errorf("%q visibility = %v, want %v", src, sel.Visibility, want)
		}
	}
	if _, err := ParseStatement("SELECT SEMI OPEN a FROM t"); err == nil {
		t.Error("SEMI without dash should fail")
	}
}

func TestParseAggregates(t *testing.T) {
	sel := parseOne(t, "SELECT COUNT(*), SUM(x), AVG(y) AS m, MIN(z), MAX(z) FROM t").(*Select)
	wantAggs := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}
	for i, w := range wantAggs {
		if sel.Items[i].Agg != w {
			t.Errorf("item %d agg = %v, want %v", i, sel.Items[i].Agg, w)
		}
	}
	if !sel.Items[0].Star {
		t.Error("COUNT(*) star flag missing")
	}
	if sel.Items[2].Alias != "m" {
		t.Errorf("alias = %q", sel.Items[2].Alias)
	}
	if !sel.HasAggregates() {
		t.Error("HasAggregates should be true")
	}
	if _, err := ParseStatement("SELECT SUM(*) FROM t"); err == nil {
		t.Error("SUM(*) should fail")
	}
}

// TestIsAggregate: a GROUP BY alone makes the aggregate shape, aggregates
// alone make it, and neither is a projection.
func TestIsAggregate(t *testing.T) {
	for q, want := range map[string]bool{
		"SELECT COUNT(*) FROM t":             true,
		"SELECT c FROM t GROUP BY c":         true,
		"SELECT c, x FROM t":                 false,
		"SELECT DISTINCT c FROM t":           false,
		"SELECT c, MAX(x) FROM t GROUP BY c": true,
	} {
		if got := parseOne(t, q).(*Select).IsAggregate(); got != want {
			t.Errorf("%q: IsAggregate = %v, want %v", q, got, want)
		}
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	sel := parseOne(t, `
		SELECT c, COUNT(*) AS n FROM t
		WHERE x > 0 GROUP BY c HAVING n > 5
		ORDER BY n DESC, c LIMIT 10`).(*Select)
	if len(sel.GroupBy) != 1 || sel.GroupBy[0] != "c" {
		t.Errorf("group by = %v", sel.GroupBy)
	}
	if sel.Having == nil {
		t.Error("having missing")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c - d / 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "((a + (b * c)) - (d / 2))" {
		t.Errorf("precedence = %s", got)
	}
	e, err = ParseExpr("a > 1 AND b < 2 OR NOT c = 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "(((a > 1) AND (b < 2)) OR (NOT (c = 3)))" {
		t.Errorf("logic precedence = %s", got)
	}
	// Modulo binds like * and /.
	e, err = ParseExpr("a + b % 3 * c")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "(a + ((b % 3) * c))" {
		t.Errorf("modulo precedence = %s", got)
	}
}

func TestParseInBetween(t *testing.T) {
	e, err := ParseExpr("c IN ('WN', 'AA') AND e BETWEEN 1 AND 5")
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	if !strings.Contains(s, "IN") || !strings.Contains(s, "BETWEEN") {
		t.Errorf("parse = %s", s)
	}
	e, err = ParseExpr("c NOT IN (1) AND e NOT BETWEEN 2 AND 3")
	if err != nil {
		t.Fatal(err)
	}
	s = e.String()
	if !strings.Contains(s, "NOT IN") || !strings.Contains(s, "NOT BETWEEN") {
		t.Errorf("negated parse = %s", s)
	}
}

func TestParseIsNull(t *testing.T) {
	e, err := ParseExpr("a IS NULL OR b IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "((a IS NULL) OR (b IS NOT NULL))" {
		t.Errorf("IS NULL parse = %s", got)
	}
}

func TestParseLiterals(t *testing.T) {
	e, err := ParseExpr("-3")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*expr.Literal)
	if !ok || lit.Val.AsInt() != -3 {
		t.Errorf("negative literal folding: %v", e)
	}
	e, err = ParseExpr("-2.5")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok = e.(*expr.Literal)
	if !ok || lit.Val.AsFloat() != -2.5 {
		t.Errorf("negative float folding: %v", e)
	}
	for src, want := range map[string]value.Value{
		"TRUE": value.Bool(true), "FALSE": value.Bool(false), "NULL": value.Null(),
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		lit := e.(*expr.Literal)
		if lit.Val.Kind() != want.Kind() {
			t.Errorf("%s parsed as %v", src, lit.Val)
		}
	}
	// 1e-7-style scientific literals (the paper's λ = 1e-7).
	e, err = ParseExpr("0.0000001")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*expr.Literal).Val.AsFloat() != 1e-7 {
		t.Errorf("tiny float literal: %v", e)
	}
}

func TestParseCreateTable(t *testing.T) {
	ct := parseOne(t, "CREATE TEMPORARY TABLE Eurostat (country TEXT, reported_count INT)").(*CreateTable)
	if !ct.Temporary || ct.Name != "Eurostat" || ct.Schema.Len() != 2 {
		t.Errorf("create table parse: %+v", ct)
	}
	ct = parseOne(t, "CREATE TABLE t2 AS (SELECT a FROM t)").(*CreateTable)
	if ct.AsSelect == nil || ct.AsSelect.From != "t" {
		t.Errorf("create table as select: %+v", ct)
	}
	if _, err := ParseStatement("CREATE TABLE bare"); err == nil {
		t.Error("CREATE TABLE without schema or AS should fail")
	}
}

func TestParseCreatePopulation(t *testing.T) {
	cp := parseOne(t, "CREATE GLOBAL POPULATION P (a INT, b TEXT)").(*CreatePopulation)
	if !cp.Global || cp.Schema.Len() != 2 {
		t.Errorf("global population parse: %+v", cp)
	}
	cp = parseOne(t, "CREATE POPULATION Q AS (SELECT a FROM P WHERE a > 3)").(*CreatePopulation)
	if cp.Global || cp.AsSelect == nil || cp.AsSelect.Where == nil {
		t.Errorf("derived population parse: %+v", cp)
	}
	if _, err := ParseStatement("CREATE POPULATION Bare (a INT)"); err == nil {
		t.Error("non-global population without AS should fail")
	}
}

func TestParseCreateSample(t *testing.T) {
	cs := parseOne(t, `CREATE SAMPLE S AS (SELECT * FROM P WHERE email = 'Yahoo')`).(*CreateSample)
	if cs.Name != "S" || !cs.Star || cs.From != "P" || cs.Where == nil {
		t.Errorf("sample parse: %+v", cs)
	}
	cs = parseOne(t, `CREATE SAMPLE S2 AS (SELECT a, b FROM P USING MECHANISM UNIFORM PERCENT 10)`).(*CreateSample)
	if m, ok := cs.Mechanism.(mechanism.Uniform); !ok || m.Percent != 10 {
		t.Errorf("uniform mechanism parse: %+v", cs.Mechanism)
	}
	if len(cs.Columns) != 2 {
		t.Errorf("sample columns: %v", cs.Columns)
	}
	cs = parseOne(t, `CREATE SAMPLE S3 AS (SELECT * FROM P USING MECHANISM STRATIFIED ON a PERCENT 20)`).(*CreateSample)
	if m, ok := cs.Mechanism.(mechanism.Stratified); !ok || m.Attr != "a" || m.Percent != 20 || m.Probs != nil {
		t.Errorf("stratified mechanism parse: %+v", cs.Mechanism)
	}
	if _, err := ParseStatement(`CREATE SAMPLE Bad AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 0)`); err == nil {
		t.Error("PERCENT 0 should fail")
	}
	if _, err := ParseStatement(`CREATE SAMPLE Bad AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 101)`); err == nil {
		t.Error("PERCENT 101 should fail")
	}
}

func TestParseCreateMetadata(t *testing.T) {
	cm := parseOne(t, `CREATE METADATA P_M1 AS (SELECT country, COUNT(*) FROM aux GROUP BY country)`).(*CreateMetadata)
	if cm.TargetPopulation() != "P" {
		t.Errorf("target population = %q", cm.TargetPopulation())
	}
	if len(cm.Attrs) != 1 || cm.Attrs[0] != "country" || cm.CountExpr != nil {
		t.Errorf("metadata parse: %+v", cm)
	}
	cm = parseOne(t, `CREATE METADATA M2 FOR Pop AS (SELECT a, b, COUNT(*) FROM aux GROUP BY a, b)`).(*CreateMetadata)
	if cm.TargetPopulation() != "Pop" || len(cm.Attrs) != 2 {
		t.Errorf("explicit FOR parse: %+v", cm)
	}
	// Precomputed count column (the Eurostat reported_count form).
	cm = parseOne(t, `CREATE METADATA P_M3 AS (SELECT country, reported_count FROM Eurostat)`).(*CreateMetadata)
	if cm.CountExpr == nil {
		t.Error("count column should be recorded")
	}
	// SUM form.
	cm = parseOne(t, `CREATE METADATA P_M4 AS (SELECT c, SUM(n) FROM aux GROUP BY c)`).(*CreateMetadata)
	if cm.CountExpr == nil {
		t.Error("SUM count expression should be recorded")
	}
	if _, err := ParseStatement(`CREATE METADATA Bad AS (SELECT COUNT(*) FROM aux)`); err == nil {
		t.Error("metadata without group attributes should fail")
	}
	if _, err := ParseStatement(`CREATE METADATA Bad AS (SELECT a, b, c, COUNT(*) FROM aux GROUP BY a, b, c)`); err == nil {
		t.Error("3-dimensional metadata should fail")
	}
	if _, err := ParseStatement(`CREATE METADATA Bad AS (SELECT a, COUNT(*) FROM aux GROUP BY b)`); err == nil {
		t.Error("GROUP BY mismatch should fail")
	}
}

func TestParseInsert(t *testing.T) {
	ins := parseOne(t, `INSERT INTO t VALUES (1, 'x'), (2, 'y')`).(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 2 {
		t.Errorf("insert parse: %+v", ins)
	}
	if ins.Weights != nil {
		t.Errorf("no WEIGHT clause parsed as %v", ins.Weights)
	}
	ins = parseOne(t, `INSERT INTO t (a, b) VALUES (1, 2)`).(*Insert)
	if len(ins.Columns) != 2 {
		t.Errorf("insert columns: %v", ins.Columns)
	}
	ins = parseOne(t, `INSERT INTO t VALUES (1), (2) WEIGHT 2.5, (3), (4) WEIGHT FLOAT 'NaN'`).(*Insert)
	if len(ins.Rows) != 4 || len(ins.Weights) != 4 || ins.Weights[0] != nil || ins.Weights[1] == nil ||
		ins.Weights[2] != nil || ins.Weights[3] == nil {
		t.Errorf("row WEIGHT clauses: %d rows, weights %v", len(ins.Rows), ins.Weights)
	}
}

func TestParseUpdateWeights(t *testing.T) {
	uw := parseOne(t, `UPDATE SAMPLE s SET WEIGHT = 2.5 WHERE a > 1`).(*UpdateWeights)
	if uw.Sample != "s" || uw.Weight == nil || uw.Where == nil {
		t.Errorf("update weights parse: %+v", uw)
	}
	uw = parseOne(t, `UPDATE SAMPLE s SET WEIGHT = WEIGHT * 2`).(*UpdateWeights)
	if uw.Where != nil {
		t.Error("optional WHERE should be nil")
	}
	if !strings.Contains(uw.Weight.String(), "WEIGHT") {
		t.Errorf("WEIGHT pseudo-column lost: %s", uw.Weight)
	}
}

func TestParseDrop(t *testing.T) {
	for kind, src := range map[string]string{
		"TABLE":      "DROP TABLE t",
		"POPULATION": "DROP POPULATION p",
		"SAMPLE":     "DROP SAMPLE s",
		"METADATA":   "DROP METADATA m",
	} {
		d := parseOne(t, src).(*Drop)
		if d.Kind != kind {
			t.Errorf("%q kind = %q", src, d.Kind)
		}
	}
	if _, err := ParseStatement("DROP INDEX i"); err == nil {
		t.Error("DROP INDEX should fail")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := Parse(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT a FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
	// Trailing semicolons and empty statements are tolerated.
	stmts, err = Parse(";;SELECT a FROM t;;")
	if err != nil || len(stmts) != 1 {
		t.Errorf("semicolon handling: %d stmts, %v", len(stmts), err)
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	_, err := Parse("SELECT FROM t")
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error should carry position: %v", err)
	}
}

func TestParseQueryRejectsNonSelect(t *testing.T) {
	if _, err := ParseQuery("CREATE TABLE t (a INT)"); err == nil {
		t.Error("ParseQuery on DDL should fail")
	}
	if _, err := ParseQuery("SELECT a FROM t; SELECT b FROM t"); err == nil {
		t.Error("ParseQuery on two statements should fail")
	}
}

func TestSelectItemNames(t *testing.T) {
	sel := parseOne(t, "SELECT COUNT(*), AVG(d) AS avg_d, c FROM t GROUP BY c").(*Select)
	if got := sel.Items[0].Name(); got != "COUNT(*)" {
		t.Errorf("item 0 name = %q", got)
	}
	if got := sel.Items[1].Name(); got != "avg_d" {
		t.Errorf("item 1 name = %q", got)
	}
	if got := sel.Items[2].Name(); got != "c" {
		t.Errorf("item 2 name = %q", got)
	}
}

func TestVisibilityStrings(t *testing.T) {
	if VisibilityClosed.String() != "CLOSED" ||
		VisibilitySemiOpen.String() != "SEMI-OPEN" ||
		VisibilityOpen.String() != "OPEN" ||
		VisibilityDefault.String() != "DEFAULT" {
		t.Error("visibility strings wrong")
	}
}

func TestParsePaperExampleScript(t *testing.T) {
	// The full Sec 2 example (modulo ingestion comments) must parse.
	src := `
	CREATE TEMPORARY TABLE Eurostat (country TEXT, email TEXT, reported_count INT);
	CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT, age INT);
	CREATE METADATA EuropeMigrants_M1 AS
		(SELECT country, reported_count FROM Eurostat);
	CREATE METADATA EuropeMigrants_M2 AS
		(SELECT email, reported_count FROM Eurostat);
	CREATE SAMPLE YahooMigrants AS
		(SELECT * FROM EuropeMigrants WHERE email = 'Yahoo');
	SELECT SEMI-OPEN country, email, COUNT(*)
		FROM EuropeMigrants GROUP BY country, email;
	SELECT OPEN country, email, COUNT(*)
		FROM EuropeMigrants GROUP BY country, email;
	`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("paper example should parse: %v", err)
	}
	if len(stmts) != 7 {
		t.Errorf("got %d statements, want 7", len(stmts))
	}
}

func TestParseExplain(t *testing.T) {
	st := parseOne(t, "EXPLAIN SELECT OPEN COUNT(*) FROM P")
	ex, ok := st.(*Explain)
	if !ok || ex.Query == nil || ex.Query.Visibility != VisibilityOpen {
		t.Errorf("explain parse: %+v", st)
	}
	if _, err := ParseStatement("EXPLAIN INSERT INTO t VALUES (1)"); err == nil {
		t.Error("EXPLAIN of non-SELECT should fail")
	}
}

func TestParseCopy(t *testing.T) {
	st := parseOne(t, "COPY flights FROM '/data/f.csv' WITH HEADER")
	c, ok := st.(*Copy)
	if !ok || c.Table != "flights" || c.Path != "/data/f.csv" || !c.Header {
		t.Errorf("copy parse: %+v", st)
	}
	c = parseOne(t, "COPY t FROM 'rel.csv'").(*Copy)
	if c.Header {
		t.Error("header flag should default false")
	}
	if _, err := ParseStatement("COPY t FROM bare_ident"); err == nil {
		t.Error("unquoted path should fail")
	}
	if _, err := ParseStatement("COPY t FROM 'p.csv' WITH FEATHERS"); err == nil {
		t.Error("WITH must be followed by HEADER")
	}
}

func TestParseDistinct(t *testing.T) {
	sel := parseOne(t, "SELECT DISTINCT a, b FROM t").(*Select)
	if !sel.Distinct || len(sel.Items) != 2 {
		t.Errorf("distinct parse: %+v", sel)
	}
	sel = parseOne(t, "SELECT CLOSED DISTINCT a FROM t").(*Select)
	if !sel.Distinct || sel.Visibility != VisibilityClosed {
		t.Errorf("visibility+distinct parse: %+v", sel)
	}
	sel = parseOne(t, "SELECT a FROM t").(*Select)
	if sel.Distinct {
		t.Error("distinct must default false")
	}
}

func TestParseMetadataWithBins(t *testing.T) {
	cm := parseOne(t, `CREATE METADATA P_e FOR P WITH BINS (e 10, d 2.5) AS (SELECT e, d, mcount FROM s)`).(*CreateMetadata)
	if cm.Bins["e"] != 10 || cm.Bins["d"] != 2.5 {
		t.Errorf("bins = %v", cm.Bins)
	}
	if _, err := ParseStatement(`CREATE METADATA M WITH BINS (e 0) AS (SELECT e, n FROM s)`); err == nil {
		t.Error("zero bin width should fail")
	}
	if _, err := ParseStatement(`CREATE METADATA M WITH BINS (e) AS (SELECT e, n FROM s)`); err == nil {
		t.Error("missing width should fail")
	}
}

func TestExprStringRoundTripProperty(t *testing.T) {
	// Re-parsing an expression's String() yields the same String():
	// rendering is a fixed point of parse∘print.
	exprs := []string{
		"a + b * c - d / 2",
		"a > 1 AND b < 2 OR NOT c = 3",
		"c IN ('WN', 'AA') AND e BETWEEN 1 AND 5",
		"x NOT IN (1, 2, 3)",
		"a IS NULL OR b IS NOT NULL",
		"name = 'O''Hare'",
		"-x * (y + 2.5) >= 0.0000001",
	}
	for _, src := range exprs {
		e1, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		s1 := e1.String()
		e2, err := ParseExpr(s1)
		if err != nil {
			t.Fatalf("re-parse %q: %v", s1, err)
		}
		if s2 := e2.String(); s1 != s2 {
			t.Errorf("round trip unstable: %q -> %q -> %q", src, s1, s2)
		}
	}
}

// TestParseMechanisms: every mechanism kind parses, from CREATE SAMPLE and
// ALTER SAMPLE, to the mechanism its text says — each number to the bits it
// was written as, each stratum to the key of its literal — and renders back
// to text that parses to the same rendering.
func TestParseMechanisms(t *testing.T) {
	key := func(v value.Value) string { return v.HashKey() }
	for _, c := range []struct {
		src  string
		want string // the mechanism's Name
	}{
		{`ALTER SAMPLE S USING MECHANISM UNIFORM PERCENT 12.5`, "UNIFORM PERCENT 12.5"},
		{`alter Sample S using mechanism uniform percent 1e-3`, "UNIFORM PERCENT 0.001"},
		{`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 20`, "STRATIFIED ON a PERCENT 20"},
		{`ALTER SAMPLE S USING MECHANISM STRATIFIED ON g PERCENT 20 WITH PROBABILITIES ('south' 0.25, 'it''s' 1, NULL 0.5)`,
			"STRATIFIED ON g PERCENT 20 WITH PROBABILITIES (NULL 0.5, 'it''s' 1, 'south' 0.25)"},
		{`ALTER SAMPLE S USING MECHANISM STRATIFIED ON i PERCENT 5 WITH PROBABILITIES (3 0.5, -2 0.25)`,
			"STRATIFIED ON i PERCENT 5 WITH PROBABILITIES (-2 0.25, 3 0.5)"},
		{`ALTER SAMPLE S USING MECHANISM STRATIFIED ON f PERCENT 5 WITH PROBABILITIES (0.1 0.30000000000000004, FLOAT '-0' 1, FLOAT 'NaN' 0.125)`,
			"STRATIFIED ON f PERCENT 5 WITH PROBABILITIES (0 1, 0.1 0.30000000000000004, FLOAT 'NaN' 0.125)"}, // -0 is the stratum 0
		{`ALTER SAMPLE S USING MECHANISM STRATIFIED ON b PERCENT 50 WITH PROBABILITIES (TRUE 0.75, FALSE 0.0625)`,
			"STRATIFIED ON b PERCENT 50 WITH PROBABILITIES (FALSE 0.0625, TRUE 0.75)"},
		{`ALTER SAMPLE S USING MECHANISM BIASED ON x > 1.5e-7 AND y = 0.1 WITH PROBABILITIES (TRUE 0.95, FALSE 0.05)`,
			"BIASED ON ((x > 1.5e-07) AND (y = 0.1)) WITH PROBABILITIES (TRUE 0.95, FALSE 0.05)"},
	} {
		clause := c.src[strings.Index(c.src, " S ")+3:]
		for _, src := range []string{c.src, "CREATE SAMPLE S AS (SELECT * FROM P " + clause + ")"} {
			st := parseOne(t, src)
			var m mechanism.Mechanism
			switch s := st.(type) {
			case *AlterSample:
				m = s.Mechanism
			case *CreateSample:
				m = s.Mechanism
			}
			if m == nil || m.Name() != c.want {
				t.Errorf("%s: mechanism %v, want %s", src, m, c.want)
				continue
			}
			if err := roundTrip(st); err != nil {
				t.Errorf("%s: %v", src, err)
			}
		}
	}
	st := parseOne(t, `ALTER SAMPLE S USING MECHANISM STRATIFIED ON f PERCENT 0.30000000000000004 WITH PROBABILITIES (0.1 0.1, 7 1)`).(*AlterSample)
	m := st.Mechanism.(mechanism.Stratified)
	if x, y := 0.1, 0.2; m.Percent != x+y || m.Probs[key(value.Float(0.1))] != 0.1 || m.Probs[key(value.Int(7))] != 1 || len(m.Probs) != 2 {
		t.Errorf("stratified: %+v", m)
	}
	if (&AlterSample{Sample: "S", Mechanism: m}).String() != "ALTER SAMPLE S USING MECHANISM "+m.Name() {
		t.Errorf("AlterSample.String() = %q", (&AlterSample{Sample: "S", Mechanism: m}).String())
	}
	b := parseOne(t, `ALTER SAMPLE S USING MECHANISM BIASED ON g = 'a' WITH PROBABILITIES (FALSE 1e-300, TRUE 1)`).(*AlterSample).Mechanism.(mechanism.Biased)
	if b.Pred == nil || b.PTrue != 1 || b.PFalse != 1e-300 {
		t.Errorf("biased: %+v", b)
	}
	for _, bad := range []string{
		`ALTER SAMPLE S`,
		`ALTER TABLE t USING MECHANISM UNIFORM PERCENT 5`,
		`ALTER SAMPLE S USING MECHANISM UNIFORM PERCENT 0`,
		`ALTER SAMPLE S USING MECHANISM CUSTOM`,
		`ALTER SAMPLE S USING MECHANISM BIASED ON x WITH PROBABILITIES (TRUE 0.5)`,
		`ALTER SAMPLE S USING MECHANISM BIASED ON x WITH PROBABILITIES (TRUE 0.5, 1 0.5)`,
		`ALTER SAMPLE S USING MECHANISM BIASED ON x WITH PROBABILITIES (TRUE 0.5, FALSE 0.5, NULL 0.5)`,
		`ALTER SAMPLE S USING MECHANISM BIASED ON x WITH PROBABILITIES (TRUE 0, FALSE 1)`,
		`ALTER SAMPLE S USING MECHANISM BIASED ON x WITH PROBABILITIES (TRUE 1.5, FALSE 1)`,
		`ALTER SAMPLE S USING MECHANISM BIASED ON x`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES ('a' 0.5, 'a' 0.5)`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES (3 0.5, 3.0 0.5)`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES (0 0.5, FLOAT '-0' 0.5)`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES (FLOAT 'NaN' 0.5, FLOAT 'NaN' 0.5)`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES ()`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES (a 0.5)`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES (? 0.5)`,
		`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH ('a' 0.5)`,
	} {
		if _, err := ParseStatement(bad); err == nil {
			t.Errorf("%s: parsed", bad)
		}
	}
}

// TestNewWordsAreNotReserved: ALTER, BIASED and PROBABILITIES are read
// only where the grammar expects them, so they still name columns, tables
// and samples.
func TestNewWordsAreNotReserved(t *testing.T) {
	for _, src := range []string{
		`CREATE TABLE alter (alter INT, biased TEXT, probabilities FLOAT)`,
		`INSERT INTO alter (alter, biased, probabilities) VALUES (1, 'x', 0.5)`,
		`SELECT alter, biased, Probabilities FROM alter WHERE biased = 'x' ORDER BY probabilities`,
		`CREATE GLOBAL POPULATION P (alter INT, biased TEXT, probabilities FLOAT)`,
		`CREATE SAMPLE biased AS (SELECT alter, biased FROM P WHERE probabilities > 0.5 USING MECHANISM BIASED ON biased = 'x' WITH PROBABILITIES (TRUE 0.5, FALSE 0.25))`,
		`CREATE SAMPLE alter AS (SELECT * FROM P USING MECHANISM STRATIFIED ON probabilities PERCENT 5 WITH PROBABILITIES (0.5 1))`,
		`ALTER SAMPLE alter USING MECHANISM STRATIFIED ON alter PERCENT 5`,
		`UPDATE SAMPLE biased SET WEIGHT = probabilities WHERE alter > 1`,
		`CREATE METADATA P_m AS (SELECT biased, COUNT(*) FROM alter GROUP BY biased)`,
	} {
		parseOne(t, src)
	}
}
