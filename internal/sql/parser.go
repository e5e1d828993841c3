package sql

import (
	"fmt"
	"strconv"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/value"
)

// Parse tokenizes and parses a script of semicolon-separated statements.
func Parse(src string) ([]Statement, error) {
	scr, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	out := make([]Statement, len(scr))
	for i, s := range scr {
		out[i] = s.Stmt
	}
	return out, nil
}

// ScriptStmt is one parsed statement paired with its exact source text
// (leading/trailing whitespace trimmed, terminator excluded). The source is
// what replication logs: replaying it on a follower reproduces the statement
// byte-for-byte.
type ScriptStmt struct {
	Stmt   Statement
	Source string
}

// ParseScript parses a script of semicolon-separated statements, retaining
// each statement's source text. It parses the whole script before returning
// anything, so a script with an error anywhere yields no statements; the
// error is the first one in source order.
func ParseScript(src string) ([]ScriptStmt, error) {
	var out []ScriptStmt
	sc := NewScanner(src)
	for sc.Next() {
		out = append(out, sc.Stmt())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Scanner reads a script one statement at a time: it lexes up to the next
// ';' and parses that statement before reading further, reusing one token
// buffer, so its memory follows the largest statement rather than the whole
// script. Use it as
//
//	sc := sql.NewScanner(src)
//	for sc.Next() {
//		st := sc.Stmt()
//		...
//	}
//	err := sc.Err()
//
// The first error, lexical or syntactic, ends the scan; nothing after it is
// read. ApplyScript runs the same two halves, lex and parse, on goroutines
// of their own.
type Scanner struct {
	src  string
	lex  lexer
	p    parser
	stmt ScriptStmt
	err  error
	done bool
}

// NewScanner returns a Scanner over src.
func NewScanner(src string) *Scanner {
	return &Scanner{src: src, lex: lexer{src: src, line: 1, col: 1}}
}

// Next parses the next statement, reporting false at the end of the script
// or at the first error (see Err). Empty statements (";;") are skipped.
func (s *Scanner) Next() bool {
	s.stmt = ScriptStmt{}
	for !s.done && s.err == nil {
		s.p.toks, s.done, s.err = s.lex.statement(s.p.toks[:0])
		if s.err != nil {
			break
		}
		var ok bool
		if s.stmt, ok, s.err = s.p.scriptStmt(s.src); ok {
			return true
		}
	}
	return false
}

// scriptStmt is the parse half of a Scanner: it parses p.toks, one
// statement's tokens as lexer.statement returns them, into a ScriptStmt
// whose Source is sliced out of src. ok is false, with a nil error, for an
// empty statement and for the end of the script.
func (p *parser) scriptStmt(src string) (st ScriptStmt, ok bool, err error) {
	p.pos = 0
	first := p.peek()
	if first.kind == tokEOF || p.acceptSymbol(";") {
		return ScriptStmt{}, false, nil
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return ScriptStmt{}, false, err
	}
	end := p.peek() // the terminator (';' or EOF), unless input trails
	if end.kind != tokEOF && !(end.kind == tokSymbol && end.text == ";") {
		return ScriptStmt{}, false, p.errf("expected ';' or end of input, found %s", end)
	}
	return ScriptStmt{Stmt: stmt, Source: strings.TrimSpace(src[first.off:end.off])}, true, nil
}

// Stmt returns the statement the last successful Next parsed. Its Source is
// a substring of the script.
func (s *Scanner) Stmt() ScriptStmt { return s.stmt }

// Err returns the error that ended the scan, or nil at a clean end.
func (s *Scanner) Err() error { return s.err }

// ParseStatement parses exactly one statement.
func ParseStatement(src string) (Statement, error) {
	sts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(sts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(sts))
	}
	return sts[0], nil
}

// ParseQuery parses one SELECT statement.
func ParseQuery(src string) (*Select, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: not a SELECT statement")
	}
	return sel, nil
}

// ParseExpr parses a standalone scalar expression (used by the Go API for
// predicates).
func ParseExpr(src string) (expr.Expr, error) {
	toks, _, err := newLexer(src).statement(nil)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input after expression: %s", p.peek())
	}
	return e, nil
}

type parser struct {
	toks []token
	pos  int
	// params counts `?` placeholders seen so far in the current statement;
	// placeholders are numbered left-to-right from 0.
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("sql: line %d col %d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, found %s", s, p.peek())
	}
	return nil
}

// identifier accepts an identifier or a non-reserved keyword usable as a name
// (e.g. a column literally named "count" is not supported, but WEIGHT is).
func (p *parser) identifier() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	// Allow a few keywords in name position where unambiguous.
	if t.kind == tokKeyword {
		switch t.text {
		case "WEIGHT", "SAMPLE", "POPULATION", "COUNT", "MIN", "MAX", "SUM", "AVG":
			p.advance()
			return t.text, nil
		}
	}
	return "", p.errf("expected identifier, found %s", t)
}

func (p *parser) parseStatement() (Statement, error) {
	p.params = 0 // placeholders number per statement
	if p.acceptWord("ALTER") {
		return p.parseAlterSample()
	}
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement, found %s", t)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdateWeights()
	case "DROP":
		return p.parseDrop()
	case "EXPLAIN":
		p.advance()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel}, nil
	case "COPY":
		return p.parseCopy()
	default:
		return nil, p.errf("unexpected keyword %s at statement start", t.text)
	}
}

// parseCopy parses COPY <relation> FROM '<path>' [WITH HEADER], or
// COPY <relation> (<col>, …) FROM STDIN and the block of rows the lexer
// hands over after its ';'.
func (p *parser) parseCopy() (Statement, error) {
	if err := p.expectKeyword("COPY"); err != nil {
		return nil, err
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.acceptSymbol("(") {
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, "STDIN") {
		if cols == nil {
			return nil, p.errf("COPY … FROM STDIN needs a column list")
		}
		p.advance()
		rows := p.peek()
		if rows.kind != tokBlock {
			return nil, p.errf("expected ';' and a block of rows, found %s", rows)
		}
		p.advance()
		return &Copy{Table: name, Block: scanBlock(rows, cols)}, nil
	}
	if t.kind != tokString {
		return nil, p.errf("expected quoted file path or STDIN, found %s", t)
	}
	if cols != nil {
		return nil, p.errf("COPY from a file takes no column list")
	}
	p.advance()
	c := &Copy{Table: name, Path: t.text}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("HEADER"); err != nil {
			return nil, err
		}
		c.Header = true
	}
	return c, nil
}

// parseVisibility handles the optional CLOSED | SEMI-OPEN | OPEN keyword
// following SELECT. SEMI-OPEN lexes as SEMI '-' OPEN; SEMIOPEN and
// SEMI_OPEN (an identifier) are accepted as aliases.
func (p *parser) parseVisibility() (Visibility, error) {
	t := p.peek()
	switch {
	case t.kind == tokKeyword && t.text == "CLOSED":
		p.advance()
		return VisibilityClosed, nil
	case t.kind == tokKeyword && t.text == "OPEN":
		p.advance()
		return VisibilityOpen, nil
	case t.kind == tokKeyword && t.text == "SEMIOPEN":
		p.advance()
		return VisibilitySemiOpen, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "SEMI_OPEN"):
		p.advance()
		return VisibilitySemiOpen, nil
	case t.kind == tokKeyword && t.text == "SEMI":
		p.advance()
		if !p.acceptSymbol("-") {
			return VisibilityDefault, p.errf("expected '-' after SEMI")
		}
		if err := p.expectKeyword("OPEN"); err != nil {
			return VisibilityDefault, err
		}
		return VisibilitySemiOpen, nil
	default:
		return VisibilityDefault, nil
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	vis, err := p.parseVisibility()
	if err != nil {
		return nil, err
	}
	sel := &Select{Visibility: vis, Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.identifier()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.acceptKeyword("WHERE") {
		sel.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			name, err := p.identifier()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, name)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		sel.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected LIMIT count, found %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.text)
		}
		p.advance()
		sel.Limit = n
	}
	sel.NumParams = p.params
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	// Aggregate?
	if t.kind == tokKeyword {
		var agg AggKind
		switch t.text {
		case "COUNT":
			agg = AggCount
		case "SUM":
			agg = AggSum
		case "AVG":
			agg = AggAvg
		case "MIN":
			agg = AggMin
		case "MAX":
			agg = AggMax
		}
		if agg != AggNone && p.peekAt(1).kind == tokSymbol && p.peekAt(1).text == "(" {
			p.advance() // agg keyword
			p.advance() // (
			item := SelectItem{Agg: agg}
			if p.acceptSymbol("*") {
				if agg != AggCount {
					return SelectItem{}, p.errf("%s(*) is not supported; only COUNT(*)", agg)
				}
				item.Star = true
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return SelectItem{}, err
				}
				item.Expr = e
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			if p.acceptKeyword("AS") {
				a, err := p.identifier()
				if err != nil {
					return SelectItem{}, err
				}
				item.Alias = a
			}
			return item, nil
		}
	}
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.identifier()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	}
	return item, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TEMPORARY"), p.acceptKeyword("TEMP"):
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		return p.parseCreateTable(true)
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable(false)
	case p.acceptKeyword("GLOBAL"):
		if err := p.expectKeyword("POPULATION"); err != nil {
			return nil, err
		}
		return p.parseCreatePopulation(true)
	case p.acceptKeyword("POPULATION"):
		return p.parseCreatePopulation(false)
	case p.acceptKeyword("SAMPLE"):
		return p.parseCreateSample()
	case p.acceptKeyword("METADATA"):
		return p.parseCreateMetadata()
	default:
		return nil, p.errf("expected TABLE, POPULATION, SAMPLE, or METADATA after CREATE")
	}
}

// parseAttrList parses "(a INT, b TEXT, ...)".
func (p *parser) parseAttrList() (*schema.Schema, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var attrs []schema.Attribute
	for {
		name, err := p.identifier()
		if err != nil {
			return nil, err
		}
		tt := p.peek()
		if tt.kind != tokIdent && tt.kind != tokKeyword {
			return nil, p.errf("expected type name for attribute %q, found %s", name, tt)
		}
		p.advance()
		k, err := value.ParseKind(strings.ToUpper(tt.text))
		if err != nil {
			return nil, p.errf("%v", err)
		}
		attrs = append(attrs, schema.Attribute{Name: name, Kind: k})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return schema.New(attrs...)
}

// looksLikeAttrList distinguishes "(a INT, ...)" from "(SELECT ...)".
func (p *parser) looksLikeAttrList() bool {
	if !(p.peek().kind == tokSymbol && p.peek().text == "(") {
		return false
	}
	n := p.peekAt(1)
	return n.kind == tokIdent || (n.kind == tokKeyword && n.text != "SELECT")
}

// parseParenSelect parses "(SELECT ...)" or a bare SELECT.
func (p *parser) parseParenSelect() (*Select, error) {
	paren := p.acceptSymbol("(")
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if paren {
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *parser) parseCreateTable(temp bool) (Statement, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name, Temporary: temp}
	if p.looksLikeAttrList() {
		ct.Schema, err = p.parseAttrList()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("AS") {
		ct.AsSelect, err = p.parseParenSelect()
		if err != nil {
			return nil, err
		}
	}
	if ct.Schema == nil && ct.AsSelect == nil {
		return nil, p.errf("CREATE TABLE %s needs an attribute list or AS SELECT", name)
	}
	return ct, nil
}

func (p *parser) parseCreatePopulation(global bool) (Statement, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	cp := &CreatePopulation{Name: name, Global: global}
	if p.looksLikeAttrList() {
		cp.Schema, err = p.parseAttrList()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("AS") {
		cp.AsSelect, err = p.parseParenSelect()
		if err != nil {
			return nil, err
		}
	}
	if !global && cp.AsSelect == nil {
		return nil, p.errf("non-global population %s must be defined AS (SELECT ... FROM <global population>)", name)
	}
	if global && cp.Schema == nil && cp.AsSelect == nil {
		return nil, p.errf("global population %s needs an attribute list", name)
	}
	return cp, nil
}

// parseCreateSample parses
//
//	CREATE SAMPLE s [(attrs)] AS
//	  (SELECT cols FROM gp [WHERE pred] [USING MECHANISM m PERCENT x]);
func (p *parser) parseCreateSample() (Statement, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	cs := &CreateSample{Name: name}
	if p.looksLikeAttrList() {
		cs.Schema, err = p.parseAttrList()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	paren := p.acceptSymbol("(")
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.acceptSymbol("*") {
		cs.Star = true
	} else {
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			cs.Columns = append(cs.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	cs.From, err = p.identifier()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		cs.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("USING") {
		if cs.Mechanism, err = p.parseMechanism(); err != nil {
			return nil, err
		}
	}
	if paren {
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// parseAlterSample parses ALTER SAMPLE s USING MECHANISM m, after ALTER.
func (p *parser) parseAlterSample() (Statement, error) {
	if err := p.expectKeyword("SAMPLE"); err != nil {
		return nil, err
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	m, err := p.parseMechanism()
	if err != nil {
		return nil, err
	}
	return &AlterSample{Sample: name, Mechanism: m}, nil
}

// parseMechanism parses the rest of a USING MECHANISM clause, after USING:
//
//	MECHANISM UNIFORM PERCENT x
//	MECHANISM STRATIFIED ON a PERCENT x [WITH PROBABILITIES (v p [, v p]…)]
//	MECHANISM BIASED ON pred WITH PROBABILITIES (TRUE p, FALSE q)
//
// It is the spelling mechanism.Mechanism.Name writes. Numbers take no
// percent or probability conversion, so each reads back the bits it was
// written from.
func (p *parser) parseMechanism() (mechanism.Mechanism, error) {
	if err := p.expectKeyword("MECHANISM"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("UNIFORM"):
		pct, err := p.percent()
		return mechanism.Uniform{Percent: pct}, err
	case p.acceptKeyword("STRATIFIED"):
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		attr, err := p.identifier()
		if err != nil {
			return nil, err
		}
		pct, err := p.percent()
		if err != nil {
			return nil, err
		}
		m := mechanism.Stratified{Attr: attr, Percent: pct}
		if p.acceptKeyword("WITH") {
			m.Probs, err = p.probabilities()
		}
		return m, err
	case p.acceptWord("BIASED"):
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		pred, err := p.parseExpr()
		if err == nil {
			err = p.expectKeyword("WITH")
		}
		if err != nil {
			return nil, err
		}
		probs, err := p.probabilities()
		t, f := value.Bool(true).HashKey(), value.Bool(false).HashKey()
		if err == nil && (len(probs) != 2 || probs[t] == 0 || probs[f] == 0) {
			err = p.errf("BIASED takes PROBABILITIES (TRUE p, FALSE q)")
		}
		return mechanism.Biased{Pred: pred, PTrue: probs[t], PFalse: probs[f]}, err
	}
	return nil, p.errf("expected UNIFORM, STRATIFIED or BIASED mechanism, found %s", p.peek())
}

// probabilities parses PROBABILITIES (v p [, v p]…), after WITH: each v a
// literal, as INSERT VALUES takes it, keyed by its HashKey, and each p an
// inclusion probability in (0, 1].
func (p *parser) probabilities() (map[string]float64, error) {
	if !p.acceptWord("PROBABILITIES") {
		return nil, p.errf("expected PROBABILITIES, found %s", p.peek())
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	probs := map[string]float64{}
	for {
		ex, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		v, err := ex.Eval(nil)
		if err != nil {
			return nil, p.errf("PROBABILITIES value: %v", err)
		}
		k := v.HashKey()
		if _, dup := probs[k]; dup {
			return nil, p.errf("PROBABILITIES value %s listed twice", v.SQL())
		}
		if probs[k], err = p.number("probability", 1); err != nil {
			return nil, err
		}
		if !p.acceptSymbol(",") {
			return probs, p.expectSymbol(")")
		}
	}
}

// percent parses PERCENT x, x in (0, 100].
func (p *parser) percent() (float64, error) {
	if err := p.expectKeyword("PERCENT"); err != nil {
		return 0, err
	}
	return p.number("PERCENT", 100)
}

// number parses an unsigned number in (0, max].
func (p *parser) number(what string, max float64) (float64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected %s value, found %s", what, t)
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil || !(f > 0 && f <= max) {
		return 0, p.errf("invalid %s value %q", what, t.text)
	}
	p.advance()
	return f, nil
}

// acceptWord accepts an identifier spelled word in any case: a word the
// grammar reads only where it expects it, so no name loses it (as STDIN).
func (p *parser) acceptWord(word string) bool {
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.advance()
		return true
	}
	return false
}

// parseCreateMetadata parses
//
//	CREATE METADATA m [FOR pop] AS
//	  (SELECT a [, b], COUNT(*) FROM aux [WHERE pred] GROUP BY a [, b]);
//
// The last select item may also be a plain column holding precomputed counts
// (the Eurostat reported_count form from the paper's Sec 2), in which case no
// GROUP BY is required.
func (p *parser) parseCreateMetadata() (Statement, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	cm := &CreateMetadata{Name: name}
	if p.acceptKeyword("FOR") {
		cm.Population, err = p.identifier()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("BINS"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		cm.Bins = map[string]float64{}
		for {
			attr, err := p.identifier()
			if err != nil {
				return nil, err
			}
			t := p.peek()
			if t.kind != tokNumber {
				return nil, p.errf("expected bin width for %q, found %s", attr, t)
			}
			w, err := strconv.ParseFloat(t.text, 64)
			if err != nil || w <= 0 {
				return nil, p.errf("invalid bin width %q", t.text)
			}
			p.advance()
			cm.Bins[attr] = w
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	paren := p.acceptSymbol("(")
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// Parse items: leading group attributes, then COUNT(*) or a count column.
	var items []SelectItem
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if len(items) < 2 || len(items) > 3 {
		return nil, p.errf("CREATE METADATA select list must be (attr [, attr], count)")
	}
	last := items[len(items)-1]
	for _, it := range items[:len(items)-1] {
		col, ok := it.Expr.(*expr.Column)
		if !ok || it.Agg != AggNone {
			return nil, p.errf("CREATE METADATA group attributes must be plain columns")
		}
		cm.Attrs = append(cm.Attrs, col.Name)
	}
	switch {
	case last.Agg == AggCount && last.Star:
		cm.CountExpr = nil // COUNT(*)
	case last.Agg == AggSum && last.Expr != nil:
		cm.CountExpr = last.Expr // SUM(weight-like column)
	case last.Agg == AggNone && last.Expr != nil:
		cm.CountExpr = last.Expr // precomputed count column
	default:
		return nil, p.errf("CREATE METADATA last item must be COUNT(*), SUM(col), or a count column")
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	cm.From, err = p.identifier()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		cm.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		var groups []string
		for {
			g, err := p.identifier()
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if len(groups) != len(cm.Attrs) {
			return nil, p.errf("GROUP BY must list the same attributes as the select list")
		}
		for i, g := range groups {
			if !strings.EqualFold(g, cm.Attrs[i]) {
				return nil, p.errf("GROUP BY attribute %q does not match select attribute %q", g, cm.Attrs[i])
			}
		}
	}
	if paren {
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return cm, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.advance()
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.acceptKeyword("WEIGHT") {
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ins.Weights = append(ins.Weights, make([]expr.Expr, len(ins.Rows)-1-len(ins.Weights))...)
			ins.Weights = append(ins.Weights, w)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdateWeights() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SAMPLE"); err != nil {
		return nil, err
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WEIGHT"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	uw := &UpdateWeights{Sample: name}
	uw.Weight, err = p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		uw.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return uw, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	var kind string
	switch {
	case p.acceptKeyword("TABLE"):
		kind = "TABLE"
	case p.acceptKeyword("POPULATION"):
		kind = "POPULATION"
	case p.acceptKeyword("SAMPLE"):
		kind = "SAMPLE"
	case p.acceptKeyword("METADATA"):
		kind = "METADATA"
	default:
		return nil, p.errf("expected TABLE, POPULATION, SAMPLE, or METADATA after DROP")
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	return &Drop{Kind: kind, Name: name}, nil
}

// ---- expression parsing (precedence climbing) ----

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Bin(expr.OpOr, left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// AND binds predicates, but inside BETWEEN the AND belongs to the
		// range; parseNot/parsePredicate consume that form before returning.
		if t := p.peek(); t.kind == tokKeyword && t.text == "AND" {
			p.advance()
			right, err := p.parseNot()
			if err != nil {
				return nil, err
			}
			left = expr.Bin(expr.OpAnd, left, right)
			continue
		}
		return left, nil
	}
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		child, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Neg: false, Child: child}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := false
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		// Lookahead for NOT IN / NOT BETWEEN.
		n := p.peekAt(1)
		if n.kind == tokKeyword && (n.text == "IN" || n.text == "BETWEEN") {
			p.advance()
			negate = true
		}
	}
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "IN":
		p.advance()
		// Accept both IN ('a','b') and the paper's IN ['a','b'] rendering is
		// not lexable (no brackets); parens only.
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &expr.In{Child: left, List: list, Negate: negate}, nil
	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.advance()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Between{Child: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case t.kind == tokKeyword && t.text == "IS":
		p.advance()
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{Child: left, Negate: neg}, nil
	case t.kind == tokSymbol:
		var op expr.BinOp
		ok := true
		switch t.text {
		case "=":
			op = expr.OpEq
		case "!=":
			op = expr.OpNe
		case "<":
			op = expr.OpLt
		case "<=":
			op = expr.OpLe
		case ">":
			op = expr.OpGt
		case ">=":
			op = expr.OpGe
		default:
			ok = false
		}
		if ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.Bin(op, left, right), nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		op := expr.OpAdd
		if t.text == "-" {
			op = expr.OpSub
		}
		left = expr.Bin(op, left, right)
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/" && t.text != "%") {
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := expr.OpMul
		switch t.text {
		case "/":
			op = expr.OpDiv
		case "%":
			op = expr.OpMod
		}
		left = expr.Bin(op, left, right)
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptSymbol("-") {
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals for cleaner ASTs.
		if lit, ok := child.(*expr.Literal); ok {
			switch lit.Val.Kind() {
			case value.KindInt:
				return expr.Lit(value.Int(-lit.Val.AsInt())), nil
			case value.KindFloat:
				return expr.Lit(value.Float(-lit.Val.AsFloat())), nil
			}
		}
		return &expr.Unary{Neg: true, Child: child}, nil
	}
	p.acceptSymbol("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := numberValue(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return expr.Lit(v), nil
	case tokString:
		p.advance()
		return expr.Lit(value.Text(t.text)), nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return expr.Lit(value.Null()), nil
		case "TRUE":
			p.advance()
			return expr.Lit(value.Bool(true)), nil
		case "FALSE":
			p.advance()
			return expr.Lit(value.Bool(false)), nil
		case "WEIGHT":
			// WEIGHT is addressable as a pseudo-column in predicates.
			p.advance()
			return expr.Col("WEIGHT"), nil
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)
	case tokIdent:
		p.advance()
		if s := p.peek(); s.kind == tokString && strings.EqualFold(t.text, "FLOAT") {
			// The typed literal FLOAT '<float>' spells the values a number
			// cannot: FLOAT 'NaN', FLOAT '+Inf', FLOAT '-Inf', FLOAT '-0'
			// (value.AppendSQL writes them so).
			f, err := strconv.ParseFloat(s.text, 64)
			if err != nil {
				return nil, p.errf("invalid FLOAT literal %s", s)
			}
			p.advance()
			return expr.Lit(value.Float(f)), nil
		}
		return expr.Col(t.text), nil
	case tokSymbol:
		if t.text == "?" {
			p.advance()
			idx := p.params
			p.params++
			return &expr.Param{Index: idx}, nil
		}
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %s in expression", t)
}
