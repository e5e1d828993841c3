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
)

// token is one lexical token with its source position (1-based line/col)
// and the byte offset of its first character in the source — the offset is
// what lets a Scanner slice each statement's exact source text back out.
type token struct {
	kind tokenKind
	// text is the keyword upper-cased, the identifier as written, the string
	// literal unquoted, or the number or symbol as written. Keyword,
	// identifier and string texts never share memory with the source: they
	// end up in catalog names and predicates, which would otherwise keep a
	// whole script alive.
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
// ends nothing.
func (l *lexer) statement(dst []token) (toks []token, eof bool, err error) {
	for {
		t, err := l.next()
		if err != nil {
			return dst, false, err
		}
		dst = append(dst, t)
		if t.kind == tokEOF || t.kind == tokSymbol && t.text == ";" {
			return dst, t.kind == tokEOF, nil
		}
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
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case isDigit(c):
			l.advance()
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.advance()
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.advance()
			if l.pos < len(l.src) && (l.peekByte() == '+' || l.peekByte() == '-') {
				l.advance()
			}
		default:
			goto done
		}
	}
done:
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
