package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mosaic/internal/sql"
)

// serialRestore is Restore as one goroutine: scan a statement, run it, scan
// the next. It is the oracle the pipelined Restore must reproduce.
func serialRestore(e *Engine, script string) error {
	if e.gen.Load() != 0 {
		return errors.New("core: Restore needs a new engine")
	}
	sc := sql.NewScanner(script)
	for i := 1; sc.Next(); i++ {
		if _, err := e.execScriptStmt(context.Background(), sc.Stmt()); err != nil {
			return fmt.Errorf("statement %d: %w", i, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	e.mu.Lock()
	e.log = stmtLog{cap: e.log.cap, base: e.gen.Load()}
	e.mu.Unlock()
	return nil
}

// TestRestoreErrorsAreTheSerialLoops: for scripts that fail lexically,
// syntactically or in a mutation at the first, a middle and the last
// statement, and for the edge cases of statement splitting, the pipelined
// Restore returns the serial loop's error text and leaves its generation
// and dump, and every goroutine it started is gone when it returns.
func TestRestoreErrorsAreTheSerialLoops(t *testing.T) {
	good := []string{
		"CREATE TABLE T (k TEXT, x INT)",
		"INSERT INTO T VALUES ('a', 1), ('it''s; fine', 2)",
		"CREATE GLOBAL POPULATION P (k TEXT, x INT)",
		"SELECT COUNT(*) FROM T",
		"CREATE SAMPLE S AS (SELECT * FROM P)",
		"INSERT INTO S VALUES ('a', 1), ('b', 2)",
	}
	// Enough small statements that the script spans several of
	// ApplyScript's batches, with the middle position inside one of them.
	for i := 0; i < 300; i++ {
		good = append(good, fmt.Sprintf("INSERT INTO T VALUES ('k%d', %d)", i%3, i))
	}
	bad := map[string]struct{ stmt, want string }{
		"lexical":  {"SELECT @ FROM T", "unexpected character '@'"},
		"syntax":   {"SELECT FROM T", "unexpected keyword FROM"},
		"mutation": {"INSERT INTO S VALUES ('c', 3), ('x', 'y')", "statement "},
	}
	join := func(stmts []string) string { return strings.Join(stmts, ";\n") + ";\n" }
	type testCase struct{ name, script, want string }
	var cases []testCase
	for kind, b := range bad {
		for _, at := range []int{0, len(good) / 2, len(good)} {
			stmts := append(append(append([]string(nil), good[:at]...), b.stmt), good[at:]...)
			cases = append(cases, testCase{fmt.Sprintf("%s at %d", kind, at+1), join(stmts), b.want})
		}
	}
	cases = append(cases,
		testCase{"exec error then syntax error", join(append(append([]string(nil), good...),
			"INSERT INTO Missing VALUES (1)", "INSERT INTO T VALUES ('z', 9)", "SELECT FROM T")), fmt.Sprintf("statement %d: ", len(good)+1)},
		testCase{"empty statements", ";;" + strings.Join(good, ";;\n;") + ";;", ""},
		testCase{"no trailing semicolon", strings.Join(good, ";\n"), ""},
		testCase{"unterminated string at the end", join(good) + "INSERT INTO T VALUES ('oops", "unterminated"},
		testCase{"empty script", "", ""},
		testCase{"comments only", "-- nothing\n/* to ; see */\n", ""},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			want, got := NewEngine(Options{Seed: 1, Workers: 1}), NewEngine(Options{Seed: 1, Workers: 1})
			wantErr, gotErr := serialRestore(want, c.script), got.Restore(c.script)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("Restore error = %v, the serial loop's = %v", gotErr, wantErr)
			}
			if c.want == "" && gotErr != nil || c.want != "" && (gotErr == nil || !strings.Contains(gotErr.Error(), c.want)) {
				t.Errorf("Restore error = %v, want one containing %q", gotErr, c.want)
			}
			if g, w := got.Generation(), want.Generation(); g != w {
				t.Errorf("generation = %d, the serial loop's = %d", g, w)
			}
			gotDump, err1 := got.DumpScript()
			wantDump, err2 := want.DumpScript()
			if gotDump != wantDump || fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Errorf("dump:\n%s (%v)\nthe serial loop's:\n%s (%v)", gotDump, err1, wantDump, err2)
			}
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a second: a goroutine that has run its last deferred call may
// take a moment to leave the count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Restore, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
