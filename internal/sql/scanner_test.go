package sql

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"mosaic/internal/expr"
)

// TestSemicolonInStringsAndCommentsDoesNotSplit: a statement ends at a ';'
// token only. Quoted and commented semicolons stay inside the statement,
// and each Source is the statement's exact text.
func TestSemicolonInStringsAndCommentsDoesNotSplit(t *testing.T) {
	src := "INSERT INTO t VALUES ('a;b', 'it'';s');\n" +
		"SELECT a FROM t -- not; the end\n;" +
		"SELECT /* ; */ b FROM u;;" +
		"SELECT c FROM v"
	want := []string{
		"INSERT INTO t VALUES ('a;b', 'it'';s')",
		"SELECT a FROM t -- not; the end",
		"SELECT /* ; */ b FROM u",
		"SELECT c FROM v",
	}
	stmts, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != len(want) {
		t.Fatalf("%d statements, want %d: %+v", len(stmts), len(want), stmts)
	}
	for i, st := range stmts {
		if st.Source != want[i] {
			t.Errorf("statement %d source = %q, want %q", i+1, st.Source, want[i])
		}
	}
	ins := stmts[0].Stmt.(*Insert)
	if got := ins.Rows[0][0].String() + " " + ins.Rows[0][1].String(); got != "'a;b' 'it'';s'" {
		t.Errorf("string literals = %s", got)
	}
}

// TestScriptErrorsInSourceOrder: the scan stops at the first error in the
// script, whether lexical or syntactic, and a later error never masks it.
func TestScriptErrorsInSourceOrder(t *testing.T) {
	cases := []struct{ src, want string }{
		// A syntax error in statement 2 comes before a lexical error in 3.
		{"SELECT a FROM t; SELECT FROM u; SELECT 'unterminated", "line 1 col 25: unexpected keyword FROM"},
		// A lexical error in statement 1 comes before a syntax error in 2.
		{"SELECT @ FROM t; SELECT FROM u", "unexpected character '@' at line 1 col 8"},
		{"SELECT a FROM t garbage; SELECT b FROM u", `line 1 col 17: expected ';' or end of input, found "garbage"`},
	}
	for _, c := range cases {
		if _, err := ParseScript(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseScript(%q) error = %v, want it to contain %q", c.src, err, c.want)
		}
	}
	sc := NewScanner("SELECT a FROM t; SELECT FROM u; SELECT c FROM v")
	var got []string
	for sc.Next() {
		got = append(got, sc.Stmt().Source)
	}
	if len(got) != 1 || got[0] != "SELECT a FROM t" || sc.Err() == nil {
		t.Errorf("scanner read %q then err %v; want the first statement, then the error", got, sc.Err())
	}
	if sc.Next() {
		t.Error("Next after an error must stay false")
	}
}

// TestFloatTypedLiteral: FLOAT '<float>' spells NaN, ±Inf and -0, and an
// expression holding one renders back to the same literal.
func TestFloatTypedLiteral(t *testing.T) {
	for src, want := range map[string]uint64{
		"FLOAT 'NaN'":  math.Float64bits(math.NaN()),
		"float '+Inf'": math.Float64bits(math.Inf(1)),
		"FLOAT '-Inf'": math.Float64bits(math.Inf(-1)),
		"FLOAT '-0'":   math.Float64bits(math.Copysign(0, -1)),
		"-0.0":         math.Float64bits(math.Copysign(0, -1)),
		"FLOAT '2.5'":  math.Float64bits(2.5),
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
		lit, ok := e.(*expr.Literal)
		if !ok {
			t.Fatalf("%q parsed to %T, want a literal", src, e)
		}
		if got := math.Float64bits(lit.Val.AsFloat()); got != want {
			t.Errorf("%q = %#x, want %#x", src, got, want)
		}
		again, err := ParseExpr(e.String())
		if err != nil || again.String() != e.String() {
			t.Errorf("%q renders %q, which re-parses to %v (%v)", src, e, again, err)
		}
	}
	if _, err := ParseExpr("FLOAT 'Infinite'"); err == nil || !strings.Contains(err.Error(), "invalid FLOAT literal") {
		t.Errorf("FLOAT 'Infinite' error = %v", err)
	}
	// Without a string after it, FLOAT is a column name as before.
	if e, err := ParseExpr("float + 1"); err != nil || e.String() != "(float + 1)" {
		t.Errorf("float + 1 = %v, %v", e, err)
	}
}

// TestParsedNamesDoNotShareTheScript: catalog names and predicates keep
// identifier and keyword texts, so none may point into the script — a
// substring would keep the whole script alive.
func TestParsedNamesDoNotShareTheScript(t *testing.T) {
	src := "CREATE SAMPLE S (WEIGHT FLOAT, grp TEXT) AS (SELECT WEIGHT, grp FROM World WHERE grp = 'a')"
	st, err := ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.(*CreateSample)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	names := []string{cs.Name, cs.From, cs.Schema.At(0).Name, cs.Schema.At(1).Name}
	names = append(names, cs.Columns...)
	names = cs.Where.Columns(names)
	for _, n := range names {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(n))); p >= lo && p < hi {
			t.Errorf("name %q shares the script's memory", n)
		}
	}
}

// TestApplyScriptIsTheScannerLoop: ApplyScript hands apply the statements a
// Scanner yields, in order, then the Scanner's error; an apply error ends
// the script at that statement.
func TestApplyScriptIsTheScannerLoop(t *testing.T) {
	for _, src := range append(fuzzSeedCorpus,
		"SELECT a FROM t;;SELECT b FROM u;",
		"SELECT a FROM t garbage; SELECT b FROM u",
		"SELECT a FROM t; /* unterminated",
		// Errors after, and inside, the first of ApplyScript's batches.
		strings.Repeat("SELECT a FROM t;", 300)+"SELECT FROM u;"+strings.Repeat("SELECT b FROM v;", 300),
		strings.Repeat("SELECT a FROM t;", 300)+"SELECT @ FROM u;SELECT b FROM v",
		strings.Repeat("SELECT a FROM t;;", 300)+"SELECT b FROM v",
		// Blocks, each a batch of its own, between, after and inside
		// batches of small statements.
		strings.Repeat(testBlock+strings.Repeat("SELECT a FROM t;", 20), 30)+testBlock+"SELECT FROM u;"+testBlock,
	) {
		if err := applyIsTheScannerLoop(src); err != nil {
			t.Error(err)
		}
	}
	stop := errors.New("stop")
	var got []string
	err := ApplyScript("SELECT a FROM t; SELECT b FROM u; SELECT FROM v", func(st ScriptStmt) error {
		got = append(got, st.Source)
		return stop
	})
	if err != stop || len(got) != 1 {
		t.Errorf("ApplyScript applied %q then returned %v; want one statement, then apply's error", got, err)
	}
}

// testBlock is a COPY block of 50 rows.
var testBlock = "COPY t (a, b) FROM STDIN;\n" + strings.Repeat("1\t'x'\n", 50) + "\\.\n"

// applyIsTheScannerLoop reports how ApplyScript's statements and error over
// src differ from a Scanner's, or nil.
func applyIsTheScannerLoop(src string) error {
	var want []string
	sc := NewScanner(src)
	for sc.Next() {
		want = append(want, sc.Stmt().Source)
	}
	var got []string
	err := ApplyScript(src, func(st ScriptStmt) error {
		got = append(got, st.Source)
		return nil
	})
	if strings.Join(got, "\x00") != strings.Join(want, "\x00") || fmt.Sprint(err) != fmt.Sprint(sc.Err()) {
		return fmt.Errorf("ApplyScript(%q) applied %q then %v; the Scanner read %q then %v", src, got, err, want, sc.Err())
	}
	return nil
}
