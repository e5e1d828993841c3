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
	// ApplyScript's batches, with the middle position inside one of them,
	// then two blocks, each a batch of its own. The script keeps 306
	// statements, so the cases keep their names.
	for i := 0; i < 298; i++ {
		good = append(good, fmt.Sprintf("INSERT INTO T VALUES ('k%d', %d)", i%3, i))
	}
	good = append(good,
		"COPY T (k, x) FROM STDIN;\n'tab\there'\t5\n'new\nline'\t6\n'\\.'\t7\n'x\n\\.\ny'\tNULL\n\\.\n",
		"COPY S (k, x, WEIGHT) FROM STDIN;\n'a'\t1\t2.5\n'a'\t1\tFLOAT 'NaN'\n\\.\n")
	bad := map[string]struct{ stmt, want string }{
		"lexical":  {"SELECT @ FROM T", "unexpected character '@'"},
		"syntax":   {"SELECT FROM T", "unexpected keyword FROM"},
		"mutation": {"INSERT INTO S VALUES ('c', 3), ('x', 'y')", "statement "},
	}
	// A block keeps the rows before its bad one, whether the bad row does
	// not scan or does not coerce. Its relation exists from the second
	// statement on. The ';' that joins statements here follows a block's
	// \. line on a line of its own.
	badBlocks := map[string]struct{ stmt, want string }{
		"bad field":    {"COPY T (k, x) FROM STDIN;\n'a'\t1\n'b'\t2\n'c'\tbogus\n'd'\t4\n\\.\n", `COPY T row 3: sql: line `},
		"bad value":    {"COPY S (k, x, WEIGHT) FROM STDIN;\n'c'\t3\t1\n'x'\t'y'\t1\n\\.\n", "COPY S row 2: table S"},
		"bad weight":   {"COPY S (k, x, WEIGHT) FROM STDIN;\n'c'\t3\t1\n'x'\t4\t-1\n\\.\n", "negative weight"},
		"bad header":   {"COPY T (x, k) FROM STDIN;\n1\t'a'\n\\.\n", "the header must name the columns (k, x) in order"},
		"header trail": {"COPY T (k, x) FROM STDIN; 'a'\t1\n\\.\n", "start on the line after its ';'"},
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
	for kind, b := range badBlocks {
		for _, at := range []int{len(good) / 2, len(good)} {
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
		testCase{"block with no end line", join(good) + "COPY T (k, x) FROM STDIN;\n'a'\t1\n'b'\t2\n", `no \. line ends the COPY block`},
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
