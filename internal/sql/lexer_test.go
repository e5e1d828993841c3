package sql

import (
	"testing"
)

// lex tokenizes the whole input, ';' tokens and blocks of rows included,
// through EOF.
func (l *lexer) lex() ([]token, error) {
	var out []token
	for {
		var eof bool
		var err error
		if out, eof, err = l.statement(out); err != nil {
			return nil, err
		}
		if eof {
			return out, nil
		}
	}
}

func lexAll(t *testing.T, src string) []token {
	t.Helper()
	toks, err := newLexer(src).lex()
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	return toks
}

func TestLexKeywordsAndIdents(t *testing.T) {
	toks := lexAll(t, "SELECT foo From BAR_baz")
	want := []struct {
		kind tokenKind
		text string
	}{
		{tokKeyword, "SELECT"},
		{tokIdent, "foo"},
		{tokKeyword, "FROM"},
		{tokIdent, "BAR_baz"},
		{tokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].kind != w.kind || toks[i].text != w.text {
			t.Errorf("token %d = {%d %q}, want {%d %q}", i, toks[i].kind, toks[i].text, w.kind, w.text)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"42":      "42",
		"3.14":    "3.14",
		"1e5":     "1e5",
		"2.5E-3":  "2.5E-3",
		".5":      ".5",
		"1e+9":    "1e+9",
		"0.00001": "0.00001",
	}
	for src, want := range cases {
		toks := lexAll(t, src)
		if toks[0].kind != tokNumber || toks[0].text != want {
			t.Errorf("lex(%q) = {%d %q}", src, toks[0].kind, toks[0].text)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks := lexAll(t, "'hello world'")
	if toks[0].kind != tokString || toks[0].text != "hello world" {
		t.Errorf("string token = %v", toks[0])
	}
	// Escaped quote.
	toks = lexAll(t, "'it''s'")
	if toks[0].text != "it's" {
		t.Errorf("escaped quote = %q", toks[0].text)
	}
	if _, err := newLexer("'unterminated").lex(); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexAll(t, "<= >= != <> < > = + - * / ( ) , ; .")
	wantTexts := []string{"<=", ">=", "!=", "!=", "<", ">", "=", "+", "-", "*", "/", "(", ")", ",", ";", "."}
	for i, w := range wantTexts {
		if toks[i].kind != tokSymbol || toks[i].text != w {
			t.Errorf("symbol %d = {%d %q}, want %q", i, toks[i].kind, toks[i].text, w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexAll(t, "SELECT -- a line comment\n1 /* block\ncomment */ + 2")
	texts := []string{}
	for _, tok := range toks {
		if tok.kind != tokEOF {
			texts = append(texts, tok.text)
		}
	}
	want := []string{"SELECT", "1", "+", "2"}
	if len(texts) != len(want) {
		t.Fatalf("got %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if _, err := newLexer("/* never closed").lex(); err == nil {
		t.Error("unterminated block comment should fail")
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexAll(t, "SELECT\n  foo")
	if toks[0].line != 1 || toks[0].col != 1 {
		t.Errorf("SELECT at %d:%d", toks[0].line, toks[0].col)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("foo at %d:%d, want 2:3", toks[1].line, toks[1].col)
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	if _, err := newLexer("SELECT @foo").lex(); err == nil {
		t.Error("@ should be rejected")
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	toks := lexAll(t, "select Select SELECT")
	for i := 0; i < 3; i++ {
		if toks[i].kind != tokKeyword || toks[i].text != "SELECT" {
			t.Errorf("token %d = {%d %q}", i, toks[i].kind, toks[i].text)
		}
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks := lexAll(t, "sélect_col")
	if toks[0].kind != tokIdent || toks[0].text != "sélect_col" {
		t.Errorf("unicode ident = %v", toks[0])
	}
}
