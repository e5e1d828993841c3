package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
	tokBlock  // the rows of a COPY … FROM STDIN block, as written
)

// token is one lexical token with its source position (1-based line/col)
// and the byte offset of its first character in the source — the offset is
// what lets a Scanner slice each statement's exact source text back out.
type token struct {
	kind tokenKind
	// text is the keyword upper-cased, the identifier as written, the string
	// literal unquoted, the number or symbol as written, or a block's row
	// lines. Keyword, identifier and string texts never share memory with
	// the source: they end up in catalog names and predicates, which would
	// otherwise keep a whole script alive. A block's text is a slice of the
	// source; what the engine keeps of its rows is copied when stored.
	text string
	line int
	col  int
	off  int // byte offset of the token's first character
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	case tokBlock:
		return "a block of rows"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords recognized by the dialect, each mapped to its own upper-case
// spelling, which keyword tokens carry as their text. Everything else is an
// identifier.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY",
		"HAVING", "ORDER", "ASC", "DESC", "LIMIT",
		"AND", "OR", "NOT", "IN", "BETWEEN",
		"IS", "NULL", "TRUE", "FALSE", "AS",
		"CREATE", "TABLE", "TEMPORARY", "TEMP",
		"POPULATION", "GLOBAL", "SAMPLE", "METADATA",
		"USING", "MECHANISM", "PERCENT", "ON",
		"UNIFORM", "STRATIFIED",
		"INSERT", "INTO", "VALUES",
		"UPDATE", "SET", "WEIGHT",
		"DROP", "FOR",
		"EXPLAIN", "COPY", "WITH", "HEADER", "BINS",
		"CLOSED", "OPEN", "SEMI", "SEMIOPEN",
		"COUNT", "SUM", "AVG", "MIN", "MAX",
		"DISTINCT",
	} {
		m[kw] = kw
	}
	return m
}()

// lexer turns SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// statement appends the tokens of the next statement to dst: every token up
// to and including the first ';', or up to and including EOF, which eof
// reports. A ';' inside a string literal or a comment is not a token, so it
// ends nothing. The ';' that ends a COPY … FROM STDIN header is followed by
// the block's rows: they come as one tokBlock before the ';', whose offset
// then marks the end of the block's \. line, so the statement's source
// spans header, rows and end line.
func (l *lexer) statement(dst []token) (toks []token, eof bool, err error) {
	start := len(dst)
	for {
		t, err := l.next()
		if err != nil {
			return dst, false, err
		}
		if t.kind == tokSymbol && t.text == ";" && isBlockHeader(dst[start:]) {
			b, err := l.block()
			if err != nil {
				return dst, false, err
			}
			t.line, t.col, t.off = l.line, l.col, l.pos
			dst = append(dst, b)
		}
		dst = append(dst, t)
		if t.kind == tokEOF || t.kind == tokSymbol && t.text == ";" {
			return dst, t.kind == tokEOF, nil
		}
	}
}

// isBlockHeader reports whether toks, a statement up to its ';', is a
// COPY … FROM STDIN header: the one statement a block of rows follows.
func isBlockHeader(toks []token) bool {
	n := len(toks)
	return n >= 4 && toks[0].kind == tokKeyword && toks[0].text == "COPY" &&
		toks[n-2].kind == tokKeyword && toks[n-2].text == "FROM" &&
		toks[n-1].kind == tokIdent && strings.EqualFold(toks[n-1].text, "STDIN")
}

// blockEnd is the line that ends a block of rows.
const blockEnd = `\.`

// block reads the rows that follow a COPY … FROM STDIN header, from the
// line after its ';' up to a line \. outside quotes, and leaves the lexer
// just past the \.: a quote opens or closes at each ', so a row's TEXT
// may hold a tab, a newline or a \. line. The rows come back as the
// token's text, a slice of the source, one line per row, each ending in
// '\n'.
func (l *lexer) block() (token, error) {
	line := l.line
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		if c := l.src[l.pos]; c != ' ' && c != '\t' {
			return token{}, fmt.Errorf("sql: line %d col %d: the rows of COPY … FROM STDIN start on the line after its ';'", l.line, l.col)
		}
		l.advance()
	}
	start := min(l.pos+1, len(l.src))
	quoted := false // a quote opened on an earlier line is still open
	for i := start; ; {
		rest := l.src[i:]
		if !quoted && strings.HasPrefix(rest, blockEnd) {
			if after := rest[len(blockEnd):]; after == "" || after[0] == '\n' {
				t := token{kind: tokBlock, text: l.src[start:i], line: line + 1, col: 1, off: start}
				l.line += strings.Count(l.src[l.pos:i], "\n")
				l.pos, l.col = i+len(blockEnd), 1+len(blockEnd)
				return t, nil
			}
		}
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			return token{}, fmt.Errorf("sql: line %d: no \\. line ends the COPY block", line)
		}
		if strings.Count(rest[:nl], "'")%2 == 1 {
			quoted = !quoted
		}
		i += nl + 1
	}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			start := l.line
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return fmt.Errorf("sql: unterminated block comment starting at line %d", start)
			}
		default:
			return nil
		}
	}
	return nil
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col, off: l.pos}, nil
	}
	line, col, off := l.line, l.col, l.pos
	c := l.peekByte()
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	var t token
	var err error
	switch {
	case isIdentStart(r):
		start := l.pos
		for l.pos < len(l.src) {
			nr, sz := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentPart(nr) {
				break
			}
			for i := 0; i < sz; i++ {
				l.advance()
			}
		}
		word := l.src[start:l.pos]
		if kw, ok := keywords[strings.ToUpper(word)]; ok {
			t = token{kind: tokKeyword, text: kw, line: line, col: col}
		} else {
			t = token{kind: tokIdent, text: strings.Clone(word), line: line, col: col}
		}
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		t, err = l.lexNumber(line, col)
	case c == '\'':
		t, err = l.lexString(line, col)
	default:
		t, err = l.lexSymbol(line, col)
	}
	t.off = off
	return t, err
}

func (l *lexer) lexNumber(line, col int) (token, error) {
	start := l.pos
	// A number spans no newline, so the column moves by its length.
	l.pos = numberEnd(l.src, start)
	l.col += l.pos - start
	text := l.src[start:l.pos]
	if text == "." {
		return token{}, fmt.Errorf("sql: stray '.' at line %d col %d", line, col)
	}
	return token{kind: tokNumber, text: text, line: line, col: col}, nil
}

func (l *lexer) lexString(line, col int) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.advance()
		if c == '\'' {
			// '' escapes a quote
			if l.pos < len(l.src) && l.peekByte() == '\'' {
				l.advance()
				b.WriteByte('\'')
				continue
			}
			return token{kind: tokString, text: b.String(), line: line, col: col}, nil
		}
		b.WriteByte(c)
	}
	return token{}, fmt.Errorf("sql: unterminated string at line %d col %d", line, col)
}

func (l *lexer) lexSymbol(line, col int) (token, error) {
	c := l.advance()
	two := ""
	if l.pos < len(l.src) {
		two = string(c) + string(l.peekByte())
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		l.advance()
		if two == "<>" {
			two = "!="
		}
		return token{kind: tokSymbol, text: two, line: line, col: col}, nil
	}
	switch c {
	case '(', ')', ',', ';', '*', '+', '-', '/', '=', '<', '>', '.', '%', '?':
		return token{kind: tokSymbol, text: string(c), line: line, col: col}, nil
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at line %d col %d", c, line, col)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
