package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic"
)

func TestRunScriptExecutesAndPrints(t *testing.T) {
	db := mosaic.Open(nil)
	// Results print to stdout; capture is unnecessary — we assert behaviour
	// through the database state and the returned error.
	err := runScript(db, `
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2), (3);
	`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Scalar("SELECT COUNT(*) FROM t")
	if err != nil || got != 3 {
		t.Errorf("COUNT after script = %g, %v", got, err)
	}
	if err := runScript(db, "SELECT broken FROM"); err == nil {
		t.Error("parse error should propagate")
	}
}

func TestRunScriptPartialFailureKeepsEarlierStatements(t *testing.T) {
	db := mosaic.Open(nil)
	err := runScript(db, `
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES ('not an int');
	`)
	if err == nil {
		t.Fatal("type error should propagate")
	}
	// The CREATE TABLE before the failure persists (no transactionality —
	// documented behaviour for the shell).
	if _, err := db.Table("t"); err != nil {
		t.Errorf("earlier statement should have applied: %v", err)
	}
}

func TestScriptFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.sql")
	script := "CREATE TABLE t (a INT);\nINSERT INTO t VALUES (7);\nSELECT a FROM t;\n"
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db := mosaic.Open(nil)
	if err := runScript(db, string(src)); err != nil {
		t.Fatal(err)
	}
}

// TestStdinReplaysADump: stdin mode reads a COPY block on to its \. line,
// through rows whose TEXT holds a newline, a ';' or a \. line, so
// `mosaic < dump.sql` rebuilds the dumped database.
func TestStdinReplaysADump(t *testing.T) {
	src := mosaic.Open(nil)
	if err := src.Exec(`
		CREATE GLOBAL POPULATION P (g TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		CREATE TABLE T (g TEXT);
	`); err != nil {
		t.Fatal(err)
	}
	if err := src.Ingest("S", [][]any{{"a;b", 1}, {"line\n\\.\nnext;", 2}, {"it's", 3}}); err != nil {
		t.Fatal(err)
	}
	if err := src.Exec(`UPDATE SAMPLE S SET WEIGHT = 2 WHERE v = 2; INSERT INTO T VALUES ('x')`); err != nil {
		t.Fatal(err)
	}
	dump, err := src.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "FROM STDIN;\n") {
		t.Fatalf("the dump has no COPY block:\n%s", dump)
	}
	db := mosaic.Open(nil)
	repl(db, strings.NewReader(dump))
	if got, err := db.Dump(); err != nil || got != dump {
		t.Errorf("stdin replay dumps (%v)\n%s\nwant\n%s", err, got, dump)
	}
}
