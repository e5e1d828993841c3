package sql

import (
	"fmt"
	"strings"
	"testing"
)

// fuzzSeedCorpus mixes every statement form the dialect accepts with
// near-miss and adversarial inputs, so coverage-guided fuzzing starts from
// deep parser states.
var fuzzSeedCorpus = []string{
	// Valid statements across the dialect.
	`SELECT * FROM t`,
	`SELECT DISTINCT a, b AS bee FROM t WHERE a > 1 AND b < 2`,
	`SELECT OPEN country, email, COUNT(*) FROM EuropeMigrants GROUP BY country, email`,
	`SELECT SEMI-OPEN AVG(v) FROM World WHERE grp = 'a' HAVING AVG(v) > 0`,
	`SELECT SEMIOPEN COUNT(*) FROM p`,
	`SELECT CLOSED a FROM s ORDER BY a DESC, b LIMIT 10`,
	`SELECT a + b * -c, SUM(x) FROM t GROUP BY a`,
	`SELECT a FROM t WHERE x IN (1, 2, 3) OR y NOT BETWEEN 0 AND 1`,
	`SELECT a FROM t WHERE s = 'it''s' AND n IS NOT NULL`,
	`SELECT a FROM t WHERE f > 1.5e-7 LIMIT 0`,
	`SELECT WEIGHT FROM s`,
	`CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL)`,
	`CREATE TABLE t2 AS (SELECT a, b FROM t WHERE a > 0)`,
	`CREATE GLOBAL POPULATION P (x INT, y TEXT)`,
	`CREATE POPULATION Q AS (SELECT x, y FROM P WHERE x > 1)`,
	`CREATE SAMPLE S AS (SELECT * FROM P)`,
	`CREATE SAMPLE S2 (x) AS (SELECT x FROM P WHERE x = 2) USING MECHANISM UNIFORM PERCENT 5`,
	`CREATE METADATA P_m AS (SELECT x, COUNT(*) FROM aux GROUP BY x)`,
	`CREATE METADATA m FOR P AS (SELECT x, n FROM truth)`,
	`INSERT INTO t VALUES (1, 'a', 2.5, TRUE), (2, NULL, 0.0, FALSE)`,
	`INSERT INTO t (a, b) VALUES (1, 'x')`,
	`UPDATE SAMPLE S SET WEIGHT = 2 WHERE x > 1`,
	`DROP TABLE t`,
	`DROP METADATA m`,
	`EXPLAIN SELECT OPEN COUNT(*) FROM P`,
	`COPY t FROM 'file.csv' WITH HEADER`,
	"COPY t (a, b, WEIGHT) FROM STDIN;\n1\t'x'\t2.5\n-3\tNULL\tFLOAT 'NaN'\n\\.\nSELECT a FROM t",
	"COPY t (s) FROM STDIN;\n'tab\there'\n'new\nline'\n'it''s'\n'\n\\.\n'\n\\.",
	"COPY t (a, b) FROM stdin;  \n1e+300\tTRUE\nfalse\tfloat '-Inf'\n\\.\n;",
	"COPY t (a) FROM STDIN;\n",
	"COPY t (a) FROM STDIN;\n1\n2\tx\n\\.",
	"COPY t (a) FROM STDIN; 1\n\\.",
	"COPY t FROM STDIN;\n\\.",
	`SELECT a FROM t; SELECT b FROM u;`,
	"INSERT INTO t VALUES ('a;b'); SELECT a FROM t -- c;d\n; SELECT /* ; */ b FROM u",
	`INSERT INTO s (a, WEIGHT) VALUES (1, 2.5), (FLOAT '-0', FLOAT '+Inf')`,
	`INSERT INTO s VALUES (1, 7) WEIGHT 2.5, (2, 7), (3, 7) WEIGHT FLOAT 'NaN'`,
	`SELECT -0.0, FLOAT 'NaN', FLOAT '-Inf' FROM t WHERE f <> FLOAT '+Inf'`,
	// Adversarial / malformed.
	`SELECT a FROM t; SELEC b FROM u; SELECT 'unterminated`,
	`SELECT a FROM t; SELECT @ FROM u; SELECT FROM v`,
	`SELECT FLOAT 'x' FROM t`,
	``,
	`;`,
	`;;;`,
	`SELECT`,
	`SELECT FROM`,
	`SELECT * FROM`,
	`SELECT * FROM t WHERE`,
	`SELECT (((((((((a`,
	`SELECT * FROM t LIMIT -1`,
	`SELECT 'unterminated FROM t`,
	`SELECT "double" FROM t`,
	`CREATE`,
	`CREATE TABLE`,
	`CREATE METADATA`,
	`INSERT INTO`,
	`SEMI-`,
	`SELECT SEMI OPEN a FROM t`,
	`SELECT a FROM t WHERE x = 1e999999`,
	`SELECT a FROM t WHERE x = .`,
	`SELECT -- comment`,
	"SELECT \x00 FROM t",
	"SELECT \xff\xfe FROM t",
	`SELECT ☃ FROM ☃`,
	strings.Repeat("(", 500),
	strings.Repeat("SELECT * FROM t;", 100),
	`SELECT a FROM t WHERE ` + strings.Repeat("NOT ", 500) + `x`,
	// Mechanisms, every kind and every stratum kind, in CREATE SAMPLE and
	// ALTER SAMPLE.
	`CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 12.5)`,
	`CREATE SAMPLE S (a INT) AS (SELECT a FROM P WHERE a > 1 USING MECHANISM STRATIFIED ON a PERCENT 20)`,
	`CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON g PERCENT 20 WITH PROBABILITIES ('north' 0.5, 'it''s' 0.25, NULL 1))`,
	`CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON i PERCENT 5 WITH PROBABILITIES (1 0.5, -2 0.25, 9007199254740993 1e-05))`,
	`CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON f PERCENT 1e-3 WITH PROBABILITIES (0.1 0.5, FLOAT '-0' 0.25, FLOAT 'NaN' 0.125, 1e+300 1, FLOAT '-Inf' 0.3))`,
	`CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON b PERCENT 50 WITH PROBABILITIES (TRUE 0.75, FALSE 0.0625))`,
	`CREATE SAMPLE S AS (SELECT * FROM P WHERE g = 'x' USING MECHANISM BIASED ON x > 1.5e-7 AND y < -0.25 WITH PROBABILITIES (TRUE 0.95, FALSE 0.05))`,
	`ALTER SAMPLE S USING MECHANISM UNIFORM PERCENT 100`,
	`alter sample S using mechanism biased on f = 0.1 OR f IN (2.5, FLOAT '+Inf') with probabilities (true 1, false 0.3)`,
	`ALTER SAMPLE S USING MECHANISM STRATIFIED ON s PERCENT 0.1 WITH PROBABILITIES ('a' 0.1, 'b' 0.2, 'c' 0.30000000000000004)`,
	`ALTER SAMPLE S USING MECHANISM BIASED ON x WITH PROBABILITIES (FALSE 0.1, TRUE 0.5)`,
	`ALTER SAMPLE S USING MECHANISM BIASED ON x WITH PROBABILITIES (TRUE 0, FALSE 1)`,
	`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES ('a' 0.5, 'a' 0.5)`,
	`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES ()`,
	`ALTER SAMPLE S USING MECHANISM STRATIFIED ON a PERCENT 5 WITH PROBABILITIES (a 0.5)`,
	`ALTER SAMPLE S USING MECHANISM UNIFORM PERCENT 5; ALTER TABLE t`,
	`ALTER SAMPLE S`,
}

// FuzzParse is the parser's no-panic and round-trip guarantee: Parse must
// never panic on arbitrary bytes, and any SELECT, COPY, CREATE SAMPLE or
// ALTER SAMPLE it accepts must re-render to SQL that parses back to the same
// rendering (a fixed point after one round); a COPY block renders with its
// rows, a mechanism as its Name. The corpus seeds every statement form plus
// malformed inputs.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeedCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := Parse(src) // must not panic
		if err != nil {
			return
		}
		for _, st := range stmts {
			if err := roundTrip(st); err != nil {
				t.Fatalf("%v\n  input:  %q", err, src)
			}
		}
	})
}

// FuzzLex asserts the lexer alone never panics and always terminates.
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeedCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := newLexer(src).lex()
		if err != nil {
			return
		}
		if len(toks) == 0 {
			t.Fatal("lex returned no tokens (EOF token expected)")
		}
		if toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("token stream does not end with EOF: %v", toks[len(toks)-1])
		}
	})
}

// roundTrip renders a SELECT, a COPY, a CREATE SAMPLE or an ALTER SAMPLE,
// parses the rendering and renders that again: the two renderings must be
// equal. Other statements pass.
func roundTrip(st Statement) error {
	render := func(st Statement) (string, bool) {
		switch s := st.(type) {
		case *Select:
			return renderSelect(s), true
		case *Copy:
			return s.String(), true
		case *CreateSample:
			return renderCreateSample(s), true
		case *AlterSample:
			return s.String(), true
		}
		return "", false
	}
	r1, ok := render(st)
	if !ok {
		return nil
	}
	again, err := ParseStatement(r1)
	if err != nil {
		return fmt.Errorf("round-trip: %q failed to re-parse: %v", r1, err)
	}
	if r2, _ := render(again); r2 != r1 {
		return fmt.Errorf("round-trip not a fixed point:\n  first:  %q\n  second: %q", r1, r2)
	}
	return nil
}

// renderSelect reconstructs the SQL text of a parsed SELECT. Expressions
// render fully parenthesized via expr.String, which keeps precedence exact.
func renderSelect(sel *Select) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if sel.Visibility != VisibilityDefault {
		b.WriteString(sel.Visibility.String())
		b.WriteByte(' ')
	}
	if sel.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range sel.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Agg != AggNone:
			inner := "*"
			if !it.Star && it.Expr != nil {
				inner = it.Expr.String()
			}
			b.WriteString(it.Agg.String() + "(" + inner + ")")
		case it.Star:
			b.WriteByte('*')
		default:
			b.WriteString(it.Expr.String())
		}
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM " + sel.From)
	if sel.Where != nil {
		b.WriteString(" WHERE " + sel.Where.String())
	}
	if len(sel.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(sel.GroupBy, ", "))
	}
	if sel.Having != nil {
		b.WriteString(" HAVING " + sel.Having.String())
	}
	if len(sel.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range sel.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if sel.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", sel.Limit)
	}
	return b.String()
}

// renderCreateSample reconstructs the SQL text of a parsed CREATE SAMPLE,
// its mechanism as the mechanism's Name.
func renderCreateSample(cs *CreateSample) string {
	var b strings.Builder
	b.WriteString("CREATE SAMPLE " + cs.Name)
	if cs.Schema != nil {
		b.WriteString(" " + cs.Schema.String())
	}
	cols := "*"
	if !cs.Star {
		cols = strings.Join(cs.Columns, ", ")
	}
	b.WriteString(" AS (SELECT " + cols + " FROM " + cs.From)
	if cs.Where != nil {
		b.WriteString(" WHERE " + cs.Where.String())
	}
	if cs.Mechanism != nil {
		b.WriteString(" USING MECHANISM " + cs.Mechanism.Name())
	}
	return b.String() + ")"
}

// TestRenderSelectRoundTripsCorpus pins the round-trip property on the valid
// corpus entries even when fuzzing is not running (plain `go test` executes
// the seed corpus only).
func TestRenderSelectRoundTripsCorpus(t *testing.T) {
	for _, src := range fuzzSeedCorpus {
		stmts, err := Parse(src)
		if err != nil {
			continue
		}
		for _, st := range stmts {
			if err := roundTrip(st); err != nil {
				t.Errorf("%q: %v", src, err)
			}
		}
	}
}
