package core

import (
	"errors"
	"fmt"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// TestStmtLogDeltaReplaysToIdenticalDump: the delta contract end to end —
// the statement suffix between two generations, replayed against a copy at
// the older generation, lands on a byte-identical dump at the newer one.
func TestStmtLogDeltaReplaysToIdenticalDump(t *testing.T) {
	primary := NewEngine(Options{Seed: 3})
	exec1(t, primary, `CREATE TABLE T (k TEXT, v INT); INSERT INTO T VALUES ('a', 1), ('b', 2)`)

	// Follower boots from the full dump at generation G0.
	script, g0, err := primary.DumpWithGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if g0 != primary.Generation() {
		t.Fatalf("DumpWithGeneration = %d, Generation = %d", g0, primary.Generation())
	}
	follower := restore(t, script)

	// Primary moves on.
	exec1(t, primary, `INSERT INTO T VALUES ('c', 3)`)
	exec1(t, primary, `CREATE TABLE U (x INT); INSERT INTO U VALUES (7)`)

	stmts, g1, err := primary.DeltaScript(g0)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != primary.Generation() {
		t.Fatalf("delta generation = %d, want %d", g1, primary.Generation())
	}
	if len(stmts) != 3 {
		t.Fatalf("delta has %d statements, want 3: %+v", len(stmts), stmts)
	}
	for i, st := range stmts {
		if st.Failed {
			t.Fatalf("statement %d marked failed: %+v", i, st)
		}
		if _, err := follower.ExecScript(st.Src); err != nil {
			t.Fatalf("replay %q: %v", st.Src, err)
		}
	}
	want, err := primary.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("replayed follower dump differs from primary\nfollower:\n%s\nprimary:\n%s", got, want)
	}
}

// TestStmtLogCaughtUpDeltaIsEmpty: asking for the current generation's
// suffix returns no statements and no error.
func TestStmtLogCaughtUpDeltaIsEmpty(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (v INT)`)
	stmts, gen, err := e.DeltaScript(e.Generation())
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 0 || gen != e.Generation() {
		t.Errorf("caught-up delta = %d stmts at gen %d, want 0 at %d", len(stmts), gen, e.Generation())
	}
}

// TestStmtLogFailedStatementsAreLogged: a failing statement still bumps the
// generation and appears in the delta with Failed set — the follower must
// replay it to reproduce any deterministic partial effects.
func TestStmtLogFailedStatementsAreLogged(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (v INT)`)
	from := e.Generation()
	if _, err := e.ExecScript(`INSERT INTO Nonexistent VALUES (1)`); err == nil {
		t.Fatal("insert into a missing table succeeded")
	}
	stmts, gen, err := e.DeltaScript(from)
	if err != nil {
		t.Fatal(err)
	}
	if gen != from+1 {
		t.Fatalf("failed statement did not bump the generation: %d -> %d", from, gen)
	}
	if len(stmts) != 1 || !stmts[0].Failed {
		t.Fatalf("delta = %+v, want one Failed statement", stmts)
	}
}

// TestStmtLogTruncation: a bounded log drops its oldest entries; a delta
// reaching past the retained window answers ErrLogTruncated (the follower's
// signal to re-bootstrap), while a delta inside the window still works.
func TestStmtLogTruncation(t *testing.T) {
	e := NewEngine(Options{StmtLogSize: 4})
	exec1(t, e, `CREATE TABLE T (v INT)`)
	base := e.Generation()
	for i := 0; i < 8; i++ {
		exec1(t, e, fmt.Sprintf("INSERT INTO T VALUES (%d)", i))
	}
	if _, _, err := e.DeltaScript(base); !errors.Is(err, ErrLogTruncated) {
		t.Errorf("delta past the retained window: err = %v, want ErrLogTruncated", err)
	}
	// The newest 4 mutations are still retained.
	stmts, gen, err := e.DeltaScript(e.Generation() - 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 || gen != e.Generation() {
		t.Errorf("in-window delta = %d stmts at gen %d, want 4 at %d", len(stmts), gen, e.Generation())
	}
	// A "from" ahead of the log (a follower of a restarted primary) is
	// truncation too, never an empty success.
	if _, _, err := e.DeltaScript(e.Generation() + 10); !errors.Is(err, ErrLogTruncated) {
		t.Errorf("delta from the future: err = %v, want ErrLogTruncated", err)
	}
}

// TestStmtLogReplaysGoAPIWrites: every Go-API write — Ingest, IngestTable,
// SetSampleMechanism and AddMarginal, each once succeeding and once failing
// — lands in the statement log as something a follower replays, beside a
// weighted COPY whose weights a later UPDATE SAMPLE rewrites. A delta across
// all of them replays, each entry with the primary's outcome, to the
// primary's dump and answers.
func TestStmtLogReplaysGoAPIWrites(t *testing.T) {
	primary := NewEngine(Options{Seed: 3})
	exec1(t, primary, `
		CREATE GLOBAL POPULATION P (g TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		CREATE TABLE T (g TEXT, v INT);
	`)
	script, g0, err := primary.DumpWithGeneration()
	if err != nil {
		t.Fatal(err)
	}
	follower := restore(t, script)

	tt, _ := primary.Catalog().Table("T")
	src := table.New("src", tt.Schema())
	for _, r := range [][]value.Value{{value.Text("a"), value.Int(1)}, {value.Text("b"), value.Int(2)}} {
		if err := src.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	m, err := marginal.New("P_g", []string{"g"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g string
		n float64
	}{{"a", 30}, {"b", 70}} {
		if err := m.Add([]value.Value{value.Text(c.g)}, c.n); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := sql.ParseExpr("v > 1")
	if err != nil {
		t.Fatal(err)
	}
	writes := []struct {
		name string
		fail bool
		do   func() error
	}{
		{"Ingest", false, func() error { return primary.Ingest("S", [][]any{{"a", 1}, {"b", 2}, {"b", 3}}) }},
		{"Ingest bad row", true, func() error { return primary.Ingest("S", [][]any{{"a", 4}, {"a", "x"}}) }},
		{"Ingest missing", true, func() error { return primary.Ingest("Nope", [][]any{{"a", 1}}) }},
		{"IngestTable", false, func() error { return primary.IngestTable("T", src) }},
		{"IngestTable missing", true, func() error { return primary.IngestTable("Nope", src) }},
		{"SetSampleMechanism", false, func() error {
			return primary.SetSampleMechanism("S", mechanism.Biased{Pred: pred, PTrue: 0.5, PFalse: 0.1})
		}},
		{"SetSampleMechanism missing", true, func() error {
			return primary.SetSampleMechanism("Nope", mechanism.Uniform{Percent: 10})
		}},
		{"AddMarginal", false, func() error { return primary.AddMarginal("P", m) }},
		{"AddMarginal twice", true, func() error { return primary.AddMarginal("P", m) }},
		{"weighted COPY", false, func() error {
			_, err := primary.ExecScript("COPY S (g, v, WEIGHT) FROM STDIN;\n'a'\t5\t2.5\n'b'\t6\t0.1\n\\.\n")
			return err
		}},
		{"UPDATE SAMPLE", false, func() error {
			_, err := primary.ExecScript("UPDATE SAMPLE S SET WEIGHT = WEIGHT * 2 WHERE v > 4")
			return err
		}},
	}
	for _, w := range writes {
		if err := w.do(); (err != nil) != w.fail {
			t.Fatalf("%s: err = %v, want failure %v", w.name, err, w.fail)
		}
	}
	stmts, _, err := primary.DeltaScript(g0)
	if err != nil {
		t.Fatalf("delta across the Go-API writes: %v", err)
	}
	for _, st := range stmts {
		if _, err := follower.ExecScript(st.Src); (err != nil) != st.Failed {
			t.Fatalf("replay of %q: err = %v, primary failed = %v", st.Src, err, st.Failed)
		}
	}
	want, _ := primary.DumpScript()
	if got, _ := follower.DumpScript(); got != want {
		t.Errorf("replayed follower dump differs from the primary's\nfollower:\n%s\nprimary:\n%s", got, want)
	}
	for _, q := range []string{
		"SELECT SEMI-OPEN g, COUNT(*) FROM P GROUP BY g ORDER BY g",
		"SELECT CLOSED g, SUM(v) FROM P GROUP BY g ORDER BY g",
		"SELECT g, v, WEIGHT FROM S",
	} {
		a, errA := primary.ExecScript(q)
		b, errB := follower.ExecScript(q)
		if errA != nil || errB != nil || a[0].String() != b[0].String() {
			t.Errorf("%s: primary %v (%v), follower %v (%v)", q, a, errA, b, errB)
		}
	}
}

// TestStmtLogDisabledRetainsNothing: StmtLogSize < 0 disables retention —
// every non-empty delta range answers ErrLogTruncated, forcing full
// snapshots, while the generation keeps advancing.
func TestStmtLogDisabledRetainsNothing(t *testing.T) {
	e := NewEngine(Options{StmtLogSize: -1})
	exec1(t, e, `CREATE TABLE T (v INT)`)
	from := e.Generation()
	exec1(t, e, `INSERT INTO T VALUES (1)`)
	if _, _, err := e.DeltaScript(from); !errors.Is(err, ErrLogTruncated) {
		t.Errorf("disabled log served a delta: err = %v, want ErrLogTruncated", err)
	}
	if stmts, _, err := e.DeltaScript(e.Generation()); err != nil || len(stmts) != 0 {
		t.Errorf("caught-up delta on a disabled log: %v, %d stmts", err, len(stmts))
	}
}
