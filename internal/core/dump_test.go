package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/value"
)

// restore executes a dump against a fresh engine.
func restore(t *testing.T, script string) *Engine {
	t.Helper()
	e := NewEngine(Options{Seed: 3})
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("restore failed: %v\nscript:\n%s", err, script)
	}
	return e
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	e := smallWorld(t)
	script, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	e2 := restore(t, script)

	// Same auxiliary table contents.
	for _, q := range []string{
		"SELECT COUNT(*) FROM Truth",
		"SELECT SUM(n) FROM Truth",
	} {
		if a, b := scalar(t, e, q), scalar(t, e2, q); a != b {
			t.Errorf("%s: %g vs %g after restore", q, a, b)
		}
	}
	// Same sample contents and same SEMI-OPEN answers (marginals survive).
	if a, b := scalar(t, e, "SELECT CLOSED COUNT(*) FROM World"), scalar(t, e2, "SELECT CLOSED COUNT(*) FROM World"); a != b {
		t.Errorf("CLOSED counts differ after restore: %g vs %g", a, b)
	}
	a := scalar(t, e, "SELECT SEMI-OPEN COUNT(*) FROM World")
	b := scalar(t, e2, "SELECT SEMI-OPEN COUNT(*) FROM World")
	if math.Abs(a-b) > 1e-6 {
		t.Errorf("SEMI-OPEN counts differ after restore: %g vs %g", a, b)
	}
}

func TestDumpPreservesWeightsAndPredicates(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM P WHERE g = 'a');
	`)
	if err := e.Ingest("S", [][]any{{"a", 1}, {"a", 2}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `UPDATE SAMPLE S SET WEIGHT = 2.5 WHERE v = 2`)
	script, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "WHERE (g = 'a')") {
		t.Errorf("sample predicate missing from dump:\n%s", script)
	}
	if !strings.Contains(script, "COPY S (g, v, WEIGHT) FROM STDIN;\n'a'\t1\t1\n'a'\t2\t2.5\n\\.\n") {
		t.Errorf("per-row weights missing from dump:\n%s", script)
	}
	e2 := restore(t, script)
	if got := scalar(t, e2, "SELECT CLOSED COUNT(*) FROM P"); got != 3.5 {
		t.Errorf("restored weighted count = %g, want 3.5 (1 + 2.5)", got)
	}
}

func TestDumpPreservesUniformMechanism(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (x INT);
		CREATE SAMPLE U AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 20);
	`)
	if err := e.Ingest("U", [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	script, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "USING MECHANISM UNIFORM PERCENT 20") {
		t.Errorf("mechanism missing:\n%s", script)
	}
	e2 := restore(t, script)
	if got := scalar(t, e2, "SELECT SEMI-OPEN COUNT(*) FROM P"); got != 10 {
		t.Errorf("restored HT count = %g, want 10", got)
	}
}

func TestDumpPreservesBinnedMarginals(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (e INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
	`)
	if err := e.Ingest("S", [][]any{{203}, {212}}); err != nil {
		t.Fatal(err)
	}
	m, err := marginal.New("P_e", []string{"e"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetBinWidth("e", 10); err != nil {
		t.Fatal(err)
	}
	_ = m.Add([]value.Value{value.Int(203)}, 30) // bin [200,210)
	_ = m.Add([]value.Value{value.Int(212)}, 70) // bin [210,220)
	if err := e.AddMarginal("P", m); err != nil {
		t.Fatal(err)
	}
	script, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "WITH BINS (e 10)") {
		t.Errorf("bin clause missing:\n%s", script)
	}
	e2 := restore(t, script)
	// Binning must survive: tuples at 203/212 map into the restored bins,
	// so IPF hits the marginal exactly.
	got := scalar(t, e2, "SELECT SEMI-OPEN COUNT(*) FROM P")
	if math.Abs(got-100) > 1e-6 {
		t.Errorf("restored binned-marginal count = %g, want 100", got)
	}
	rows := query(t, e2, "SELECT SEMI-OPEN e, COUNT(*) FROM P GROUP BY e ORDER BY e")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	lo, _ := rows[0][1].Float64()
	hi, _ := rows[1][1].Float64()
	if math.Abs(lo-30) > 1e-6 || math.Abs(hi-70) > 1e-6 {
		t.Errorf("restored bin masses = %g/%g, want 30/70", lo, hi)
	}
}

func TestDumpQuotesEmbeddedQuotes(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (s TEXT)`)
	if err := e.Ingest("T", [][]any{{"O'Hare"}}); err != nil {
		t.Fatal(err)
	}
	script, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	e2 := restore(t, script)
	rows := query(t, e2, "SELECT s FROM T")
	if len(rows) != 1 || rows[0][0].AsText() != "O'Hare" {
		t.Errorf("quote round trip = %v", rows)
	}
}

// TestSetMechanismRefusesTypeWithoutSQL: a mechanism type the dialect
// cannot spell is refused with a typed error before anything changes — no
// generation, no log entry, no mechanism — so no dump or replica can lose it.
func TestSetMechanismRefusesTypeWithoutSQL(t *testing.T) {
	e := smallWorld(t)
	before, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	err = e.SetSampleMechanism("S", fakeMech{})
	var nse *mechanism.NoSQLError
	if !errors.As(err, &nse) || nse.Type != "core.fakeMech" {
		t.Fatalf("SetSampleMechanism(fakeMech) = %v, want a *mechanism.NoSQLError for core.fakeMech", err)
	}
	if e.Generation() != gen {
		t.Errorf("a refused mechanism advanced the generation %d -> %d", gen, e.Generation())
	}
	if s, _ := e.Catalog().Sample("S"); s.Mechanism != nil {
		t.Errorf("a refused mechanism was installed: %v", s.Mechanism)
	}
	if after, _ := e.DumpScript(); after != before {
		t.Errorf("a refused mechanism changed the dump:\n%s\nwant\n%s", after, before)
	}
}

// TestSetMechanismInstallsWhatReplays: SetSampleMechanism installs the
// mechanism its logged ALTER SAMPLE parses to, not the caller's value, so a
// follower replaying the statement installs the same one. A Stratified with
// an empty, non-nil probability map writes no list: both install a design
// without probabilities, which SEMI-OPEN answers by IPF.
func TestSetMechanismInstallsWhatReplays(t *testing.T) {
	e := smallWorld(t)
	from := e.Generation()
	if err := e.SetSampleMechanism("S", mechanism.Stratified{Attr: "grp", Percent: 10, Probs: map[string]float64{}}); err != nil {
		t.Fatal(err)
	}
	stmts, _, err := e.DeltaScript(from)
	if err != nil || len(stmts) != 1 || stmts[0].Src != "ALTER SAMPLE S USING MECHANISM STRATIFIED ON grp PERCENT 10" {
		t.Fatalf("logged %+v (%v), want the one ALTER SAMPLE", stmts, err)
	}
	s, _ := e.Catalog().Sample("S")
	if m, ok := s.Mechanism.(mechanism.Stratified); !ok || m.Probs != nil {
		t.Errorf("installed %#v, want the parsed design with nil Probs", s.Mechanism)
	}
	if out, err := e.ExecScript("EXPLAIN SELECT SEMI-OPEN COUNT(*) FROM World"); err != nil ||
		!strings.Contains(out[0].String(), "IPF reweighting") {
		t.Errorf("EXPLAIN = %v (%v), want IPF", out, err)
	}
}

type fakeMech struct{}

func (fakeMech) Name() string { return "CUSTOM" }
func (fakeMech) InclusionProb([]value.Value, *schema.Schema) (float64, error) {
	return 1, nil
}
