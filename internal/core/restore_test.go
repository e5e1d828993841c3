package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Cell and weight domains of the random worlds: texts with quotes,
// semicolons and comment markers inside them, and every special float (a
// NaN with a non-canonical payload too).
var (
	rtTexts  = append([]string{"a", "b", "it's", "x;y", "-- not a comment", "/* nor this */", ""}, blockTexts...)
	rtFloats = []float64{0.5, -2.25, 3, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000123), 1e300, 5e-324, 0.1}
	rtWeights = []float64{1, 2.5, 0, 0.1, 1e300, 5e-324, math.Copysign(0, -1), math.Inf(1),
		math.NaN(), math.Float64frombits(0x7ff8000000000123), 3}
)

var roundTripQueries = []string{
	"SELECT k, i, f, b FROM T",
	"SELECT k, i, f, b, WEIGHT FROM S1",
	"SELECT k, i, WEIGHT FROM S2",
	"SELECT CLOSED COUNT(*), SUM(i), SUM(f), AVG(f), MIN(f), MAX(f) FROM P",
	"SELECT CLOSED k, COUNT(*), SUM(WEIGHT) FROM P GROUP BY k ORDER BY k",
	"SELECT CLOSED k, i, f FROM P ORDER BY f, k, i",
	"SELECT CLOSED COUNT(*), SUM(f) FROM Q",
	"SELECT SEMI-OPEN k, COUNT(*) FROM P GROUP BY k ORDER BY k",
	"SELECT SEMI-OPEN i, COUNT(*), AVG(f) FROM P GROUP BY i ORDER BY i",
	"SELECT SEMI-OPEN COUNT(*) FROM Q",
}

// randomWorld builds a seeded database with every value kind, NULLs,
// special floats, identical tuples with distinct weights, a derived
// population whose predicate holds a -0 literal, a UNIFORM mechanism, a
// binned marginal, and a Go-API marginal with special cells.
func randomWorld(t *testing.T, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(Options{Seed: 3})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (k TEXT, i INT, f FLOAT, b BOOL);
		CREATE POPULATION Q AS (SELECT k, i, f, b FROM P WHERE f >= -0.0 OR k IN ('it''s', 'x;y'));
		CREATE TABLE T (k TEXT, i INT, f FLOAT, b BOOL);
		CREATE TABLE E (k TEXT, i INT);
		CREATE TABLE Mk (k TEXT, n INT);
		CREATE TABLE Mi (i INT, n INT);
		CREATE SAMPLE S1 AS (SELECT * FROM P);
		CREATE SAMPLE S2 AS (SELECT k, i FROM P WHERE b = TRUE USING MECHANISM UNIFORM PERCENT 20);
	`)
	text := func() string { return rtTexts[rng.Intn(len(rtTexts))] }
	float := func() float64 { return rtFloats[rng.Intn(len(rtFloats))] }
	maybeNull := func(x any) any {
		if rng.Intn(8) == 0 {
			return nil
		}
		return x
	}
	var rows [][]any
	for r := 0; r < 60; r++ {
		rows = append(rows, []any{maybeNull(text()), maybeNull(rng.Intn(7) - 3), maybeNull(float()), maybeNull(rng.Intn(2) == 0)})
	}
	rows = append(rows, []any{"max", int64(math.MaxInt64), 1.5, true}, []any{"min", int64(math.MinInt64), -1.5, false})
	mustIngest(t, e, "T", rows)
	// Sample tuples come from a small domain, so identical tuples recur.
	rows = rows[:0]
	for r := 0; r < 50+rng.Intn(150); r++ {
		rows = append(rows, []any{text(), rng.Intn(7) - 3, maybeNull(float()), maybeNull(rng.Intn(2) == 0)})
	}
	mustIngest(t, e, "S1", rows)
	rows = rows[:0]
	for r := 0; r < 40; r++ {
		rows = append(rows, []any{text(), rng.Intn(7) - 3})
	}
	mustIngest(t, e, "S2", rows)
	// Unit weights on one seed in three; finite ones on the next, so weighted
	// answers stay numbers; any, NaN and +Inf too, on the third.
	if seed%3 != 0 {
		for _, name := range []string{"S1", "S2"} {
			s, _ := e.Catalog().Sample(name)
			ws := s.Table.Weights()
			for r := range ws {
				w := rtWeights[rng.Intn(len(rtWeights))]
				if rng.Intn(2) == 0 || seed%3 == 2 && (math.IsNaN(w) || math.IsInf(w, 0)) {
					continue
				}
				ws[r] = w
			}
			if err := s.Table.SetWeights(ws); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Marginal sources list their cells in value order, the order a dump
	// re-declares them in, so IPF sees the same cells in the same order.
	ks := append([]string(nil), rtTexts...)
	sort.Strings(ks)
	rows = rows[:0]
	for _, k := range ks {
		rows = append(rows, []any{k, 10 + rng.Intn(90)})
	}
	mustIngest(t, e, "Mk", rows)
	mustIngest(t, e, "Mi", [][]any{{-4, 30}, {-2, 20}, {0, 25}, {2, 25}})
	exec1(t, e, `
		CREATE METADATA P_k AS (SELECT k, n FROM Mk);
		CREATE METADATA P_i WITH BINS (i 2) AS (SELECT i, n FROM Mi);
	`)
	m, err := marginal.New("Q_f", []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add([]value.Value{value.Float(math.Copysign(0, -1))}, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := m.Add([]value.Value{value.Float(math.Inf(1))}, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if err := e.AddMarginal("Q", m); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustIngest(t *testing.T, e *Engine, rel string, rows [][]any) {
	t.Helper()
	if err := e.Ingest(rel, rows); err != nil {
		t.Fatalf("ingest %s: %v", rel, err)
	}
}

// answerText renders an answer exactly (HashKey per cell), or its error.
func answerText(e *Engine, q string) string {
	sel, err := sql.ParseQuery(q)
	if err != nil {
		return "parse error: " + err.Error()
	}
	res, err := e.Query(sel)
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		b.WriteByte('\n')
		for _, v := range row {
			b.WriteString(v.HashKey())
			b.WriteByte('|')
		}
	}
	return b.String()
}

// canonBits is a float's bits with every NaN as the canonical NaN: what a
// restore must give back.
func canonBits(f float64) uint64 {
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// sameStored checks that restored holds orig's rows and weights, bit for
// bit, NaN canonicalized.
func sameStored(orig, restored *table.Table) error {
	a, b := orig.Snapshot(), restored.Snapshot()
	if a.Len() != b.Len() {
		return fmt.Errorf("%d rows restored as %d", a.Len(), b.Len())
	}
	for r := 0; r < a.Len(); r++ {
		if w, got := canonBits(a.Weight(r)), math.Float64bits(b.Weight(r)); w != got {
			return fmt.Errorf("row %d: weight %#x restored as %#x", r, w, got)
		}
		for c := 0; c < a.Schema().Len(); c++ {
			va, vb := a.Value(r, c), b.Value(r, c)
			same := va == vb
			if va.Kind() == value.KindFloat && vb.Kind() == value.KindFloat {
				same = canonBits(va.AsFloat()) == math.Float64bits(vb.AsFloat())
			}
			if !same {
				return fmt.Errorf("row %d column %d: %v restored as %v", r, c, va, vb)
			}
		}
	}
	return nil
}

// TestDumpRoundTripProperty: over seeded random databases, dump → Restore
// gives back every cell and weight bit for bit (every NaN as the canonical
// NaN), the same CLOSED and SEMI-OPEN answers byte for byte, and a dump
// equal to the one it was restored from. The dump's COPY blocks carry TEXT
// with tabs, newlines, quotes and \. lines, in rows and in marginal cells,
// identical tuples with different weights, and an empty table.
func TestDumpRoundTripProperty(t *testing.T) {
	semiOpenAnswered := 0
	for seed := int64(1); seed <= 12; seed++ {
		e := randomWorld(t, seed)
		script, err := e.DumpScript()
		if err != nil {
			t.Fatalf("seed %d: dump: %v", seed, err)
		}
		r := NewEngine(e.Options())
		if err := r.Restore(script); err != nil {
			t.Fatalf("seed %d: restore: %v\n%s", seed, err, script)
		}
		for _, name := range []string{"T", "E", "S1", "S2"} {
			orig, _ := e.sourceTable(name)
			back, err := r.sourceTable(name)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := sameStored(orig, back); err != nil {
				t.Errorf("seed %d: %s: %v", seed, name, err)
			}
		}
		for _, q := range roundTripQueries {
			want, got := answerText(e, q), answerText(r, q)
			if got != want {
				t.Errorf("seed %d: %s:\nrestored %q\noriginal %q", seed, q, got, want)
			}
			semiOpen := strings.Contains(q, "SEMI-OPEN")
			if strings.HasPrefix(want, "error:") && !semiOpen {
				t.Errorf("seed %d: %s: %s", seed, q, want)
			}
			if semiOpen && !strings.HasPrefix(want, "error:") {
				semiOpenAnswered++
			}
		}
		again, err := r.DumpScript()
		if err != nil {
			t.Fatal(err)
		}
		if again != script {
			t.Errorf("seed %d: the dump is not a fixpoint:\n%s\n---\n%s", seed, again, script)
		}
	}
	if semiOpenAnswered == 0 {
		t.Error("no SEMI-OPEN query answered on any seed; the comparison checked only errors")
	}
}

// blockTexts are TEXT values the block format must carry as data: a tab, a
// newline, doubled quotes, and lines that read \. outside a quote.
var blockTexts = []string{"tab\there", "new\nline", "''", "\\.", "x\n\\.\ny", "\n\\.\n", "\t'\n"}

// TestDumpRoundTripShadowedWeights: a sample with a column named WEIGHT,
// reweighted from that column, dumps its tuple weights in a last WEIGHT
// column of its block, which the real column cannot shadow, and restores
// the same weights (identical tuples keeping their own), TEXT values with
// tabs, newlines, quotes and \. lines, an empty sample, answers and dump.
func TestDumpRoundTripShadowedWeights(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT, weight INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		CREATE SAMPLE S0 AS (SELECT g FROM P WHERE g = 'none');
		INSERT INTO S VALUES ('a', 7), ('b', 2);
	`)
	script, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "COPY S (g, WEIGHT) FROM STDIN;\n'a'\t7\n'b'\t2\n\\.\n") {
		t.Errorf("unit-weight rows:\n%s", script)
	}
	exec1(t, e, `
		UPDATE SAMPLE S SET WEIGHT = weight;
		INSERT INTO S VALUES ('a', 7);
	`)
	if script, err = e.DumpScript(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "COPY S (g, WEIGHT, WEIGHT) FROM STDIN;\n'a'\t7\t7\n'b'\t2\t2\n'a'\t7\t1\n\\.\n") {
		t.Errorf("weighted rows:\n%s", script)
	}
	if strings.Contains(script, "COPY S0") {
		t.Errorf("an empty sample dumps a block:\n%s", script)
	}
	var rows [][]any
	for i, s := range blockTexts {
		rows = append(rows, []any{s, i})
	}
	mustIngest(t, e, "S", rows)
	exec1(t, e, `UPDATE SAMPLE S SET WEIGHT = 0.5 WHERE weight = 3`)
	if script, err = e.DumpScript(); err != nil {
		t.Fatal(err)
	}
	r := NewEngine(e.Options())
	if err := r.Restore(script); err != nil {
		t.Fatalf("restore: %v\n%s", err, script)
	}
	for _, name := range []string{"S", "S0"} {
		orig, _ := e.Catalog().Sample(name)
		back, _ := r.Catalog().Sample(name)
		if err := sameStored(orig.Table, back.Table); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, q := range []string{
		"SELECT CLOSED COUNT(*), SUM(weight) FROM P",
		"SELECT CLOSED g, COUNT(*), AVG(weight) FROM P GROUP BY g ORDER BY g",
	} {
		if want, got := answerText(e, q), answerText(r, q); got != want || strings.HasPrefix(want, "error:") {
			t.Errorf("%s:\nrestored %q\noriginal %q", q, got, want)
		}
	}
	if again, err := r.DumpScript(); err != nil || again != script {
		t.Errorf("the dump is not a fixpoint (%v):\n%s\n---\n%s", err, again, script)
	}
}

// TestInsertWeightColumn pins INSERT's WEIGHT: the tuple weight of a sample
// row, converted as SET WEIGHT converts; a column named WEIGHT wins in the
// column list but not over a row's WEIGHT clause; a table has no weight to
// set, and no row sets its weight twice.
func TestInsertWeightColumn(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT, v INT, weight INT);
		CREATE SAMPLE S AS (SELECT g, v FROM P);
		CREATE SAMPLE S2 AS (SELECT g, weight FROM P);
		CREATE TABLE T (g TEXT);
		INSERT INTO S (g, v, WEIGHT) VALUES ('a', 1, 2.5), ('a', 1, 3);
		INSERT INTO S (weight, g, v) VALUES (FLOAT 'NaN', 'b', 2), (TRUE, 'c', 3);
		INSERT INTO S VALUES ('d', 4), ('e', 5) WEIGHT 0.5;
		INSERT INTO S2 (g, WEIGHT) VALUES ('a', 7);
		INSERT INTO S2 (WEIGHT, g) VALUES (8, 'b') WEIGHT 4;
	`)
	s, _ := e.Catalog().Sample("S")
	want := []float64{2.5, 3, math.NaN(), 1, 1, 0.5}
	got := s.Table.Weights()
	for i := range want {
		if canonBits(want[i]) != math.Float64bits(got[i]) {
			t.Errorf("weights = %v, want %v", got, want)
			break
		}
	}
	s2, _ := e.Catalog().Sample("S2")
	s2w := s2.Table.Weights()
	if row, w := s2.Table.Row(0), s2w[0]; row[1].AsInt() != 7 || w != 1 {
		t.Errorf("S2 row %v weight %g: the column named WEIGHT must win", row, w)
	}
	if row, w := s2.Table.Row(1), s2w[1]; row[1].AsInt() != 8 || w != 4 {
		t.Errorf("S2 row %v weight %g: the WEIGHT clause sets the tuple weight", row, w)
	}
	for src, wantErr := range map[string]string{
		`INSERT INTO T (g, WEIGHT) VALUES ('a', 2)`:                `no column "WEIGHT"`,
		`INSERT INTO T VALUES ('a') WEIGHT 2`:                      "a WEIGHT clause needs a sample",
		`INSERT INTO S (g, v, WEIGHT) VALUES ('a', 1, -1)`:         "negative weight",
		`INSERT INTO S (g, v, WEIGHT) VALUES ('a', 1, 'x')`:        "weight: value: cannot coerce TEXT",
		`INSERT INTO S VALUES ('a', 1) WEIGHT 'x'`:                 "weight: value: cannot coerce TEXT",
		`INSERT INTO S (g, v, WEIGHT) VALUES ('a', 1, 2) WEIGHT 3`: "weight given twice",
	} {
		if _, err := e.ExecScript(src); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want %q", src, err, wantErr)
		}
	}
}

// TestExecScriptSyntaxErrorExecutesNothing: a script is parsed whole before
// any statement runs, so a syntax error in statement k leaves statements
// 1..k-1 unexecuted — and a ';' inside a literal or comment splits nothing.
func TestExecScriptSyntaxErrorExecutesNothing(t *testing.T) {
	e := NewEngine(Options{})
	gen := e.Generation()
	_, err := e.ExecScript(`
		CREATE TABLE A (s TEXT);
		INSERT INTO A VALUES ('x;y'); -- a comment; with a semicolon
		/* ; */ INSERT INTO A VALUES ('z');
		INSERT INTO A VALUES ('w') garbage;
	`)
	if err == nil || !strings.Contains(err.Error(), "garbage") {
		t.Fatalf("err = %v, want the syntax error in statement 4", err)
	}
	if _, ok := e.Catalog().Table("A"); ok || e.Generation() != gen {
		t.Fatalf("statements before the syntax error ran (generation %d → %d)", gen, e.Generation())
	}
	exec1(t, e, `
		CREATE TABLE A (s TEXT);
		INSERT INTO A VALUES ('x;y'); -- a comment; with a semicolon
		/* ; */ INSERT INTO A VALUES ('z');
	`)
	if got := answerText(e, "SELECT s FROM A"); got != "s\n\x03x;y|\n\x03z|" {
		t.Errorf("rows = %q", got)
	}
}

// TestRestoreLogStartsAtReplayedGeneration: a restored engine reaches the
// generation a statement-by-statement replay reaches, but its log holds
// none of the replay — a delta from below answers ErrLogTruncated, as after
// log eviction — and it logs what runs after the restore as usual.
func TestRestoreLogStartsAtReplayedGeneration(t *testing.T) {
	script, err := smallWorld(t).DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	r := NewEngine(Options{Seed: 3})
	if err := r.Restore(script); err != nil {
		t.Fatal(err)
	}
	g := r.Generation()
	if want := restore(t, script).Generation(); g != want || g == 0 {
		t.Fatalf("restored generation %d, replayed %d", g, want)
	}
	for _, from := range []uint64{0, 1, g - 1} {
		if _, _, err := r.DeltaScript(from); !errors.Is(err, ErrLogTruncated) {
			t.Errorf("DeltaScript(%d) err = %v, want ErrLogTruncated", from, err)
		}
	}
	if stmts, cur, err := r.DeltaScript(g); err != nil || cur != g || len(stmts) != 0 {
		t.Errorf("DeltaScript(%d) = %v, %d, %v; want nothing to replay", g, stmts, cur, err)
	}
	exec1(t, r, `INSERT INTO Truth VALUES ('c', 3, 5)`)
	if stmts, _, err := r.DeltaScript(g); err != nil || len(stmts) != 1 || stmts[0].Src != "INSERT INTO Truth VALUES ('c', 3, 5)" {
		t.Errorf("delta after the restore = %+v, %v", stmts, err)
	}
	if err := r.Restore(script); err == nil {
		t.Error("Restore into a changed engine must refuse")
	}
}

// TestRestoreRefusesPopulationOverUndeclaredColumn pins what a snapshot
// saved before CREATE POPULATION checked its WHERE gets now: such a
// population's predicate may name a column its global population lacks
// (WEIGHT here), and the replay stops at that statement with the catalog's
// refusal. The population has to be dropped from the script, or its WHERE
// rewritten over declared attributes, before the snapshot restores.
func TestRestoreRefusesPopulationOverUndeclaredColumn(t *testing.T) {
	// DumpScript's output for a world whose population filters on WEIGHT.
	script := "-- Mosaic dump; replay with mosaic.DB.Exec or cmd/mosaic.\n" +
		"CREATE GLOBAL POPULATION P (g TEXT, x INT);\n" +
		"CREATE POPULATION Heavy AS (SELECT g, x FROM P WHERE (WEIGHT > 1));\n"
	err := NewEngine(Options{Seed: 1}).Restore(script)
	want := `statement 2: catalog: population "Heavy": WHERE names "WEIGHT", which is not an attribute of "P"`
	if err == nil || err.Error() != want {
		t.Fatalf("Restore = %v, want %s", err, want)
	}
	fixed := strings.Replace(script, " WHERE (WEIGHT > 1)", " WHERE (x > 1)", 1)
	if err := NewEngine(Options{Seed: 1}).Restore(fixed); err != nil {
		t.Errorf("the rewritten script: %v", err)
	}
}
