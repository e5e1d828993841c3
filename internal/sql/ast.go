// Package sql implements Mosaic's SQL dialect: a hand-written lexer and
// recursive-descent parser for standard SELECT/INSERT/CREATE TABLE plus the
// paper's extensions — CREATE [GLOBAL] POPULATION, CREATE SAMPLE ... USING
// MECHANISM, ALTER SAMPLE, CREATE METADATA, and the SELECT visibility keyword
// (CLOSED | SEMI-OPEN | OPEN).
package sql

import (
	"fmt"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/value"
)

// Visibility is the query openness level chosen by the user (paper Sec 3.3).
type Visibility uint8

// Visibility levels. VisibilityDefault means the user did not specify one;
// the engine resolves it (CLOSED for auxiliary tables, SEMI-OPEN for
// populations).
const (
	VisibilityDefault Visibility = iota
	VisibilityClosed
	VisibilitySemiOpen
	VisibilityOpen
)

// String returns the SQL spelling.
func (v Visibility) String() string {
	switch v {
	case VisibilityClosed:
		return "CLOSED"
	case VisibilitySemiOpen:
		return "SEMI-OPEN"
	case VisibilityOpen:
		return "OPEN"
	default:
		return "DEFAULT"
	}
}

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregates. AggNone marks a plain (non-aggregate) select item.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return ""
	}
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Agg   AggKind   // AggNone for plain expressions
	Star  bool      // COUNT(*) or bare *
	Expr  expr.Expr // nil when Star
	Alias string    // optional AS alias
}

// Name returns the display name of the item.
func (it SelectItem) Name() string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != AggNone {
		inner := "*"
		if !it.Star && it.Expr != nil {
			inner = it.Expr.String()
		}
		return it.Agg.String() + "(" + inner + ")"
	}
	if it.Star {
		return "*"
	}
	return it.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// Select is a SELECT statement.
type Select struct {
	Visibility Visibility
	Distinct   bool
	Items      []SelectItem
	From       string
	Where      expr.Expr
	GroupBy    []string
	Having     expr.Expr
	OrderBy    []OrderItem
	Limit      int // -1 when absent
	// NumParams is the number of `?` placeholders in the statement,
	// numbered left-to-right from 0. A Select with NumParams > 0 must be
	// bound with BindParams before execution.
	NumParams int
}

func (*Select) stmt() {}

// BindParams returns a copy of sel with every `?` placeholder replaced by
// the corresponding literal value, in left-to-right placeholder order. The
// bound statement is structurally identical to the same query written with
// the literals inline — including output column names, which render from the
// bound expressions — so answers are byte-identical to the inlined spelling.
// sel itself is never mutated; with zero placeholders and zero values it is
// returned unchanged.
func BindParams(sel *Select, vals []value.Value) (*Select, error) {
	if len(vals) != sel.NumParams {
		return nil, fmt.Errorf("sql: statement has %d parameter(s), got %d value(s)", sel.NumParams, len(vals))
	}
	if sel.NumParams == 0 {
		return sel, nil
	}
	out := *sel
	itemsCopied := false
	for i, it := range sel.Items {
		if it.Expr == nil {
			continue
		}
		b, err := expr.ReplaceParams(it.Expr, vals)
		if err != nil {
			return nil, err
		}
		if b == it.Expr {
			continue
		}
		if !itemsCopied {
			out.Items = append([]SelectItem(nil), sel.Items...)
			itemsCopied = true
		}
		out.Items[i].Expr = b
	}
	var err error
	if out.Where, err = expr.ReplaceParams(sel.Where, vals); err != nil {
		return nil, err
	}
	if out.Having, err = expr.ReplaceParams(sel.Having, vals); err != nil {
		return nil, err
	}
	orderCopied := false
	for i, o := range sel.OrderBy {
		b, err := expr.ReplaceParams(o.Expr, vals)
		if err != nil {
			return nil, err
		}
		if b == o.Expr {
			continue
		}
		if !orderCopied {
			out.OrderBy = append([]OrderItem(nil), sel.OrderBy...)
			orderCopied = true
		}
		out.OrderBy[i].Expr = b
	}
	out.NumParams = 0
	return &out, nil
}

// HasAggregates reports whether any select item is an aggregate.
func (s *Select) HasAggregates() bool {
	for _, it := range s.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// IsAggregate reports whether the query has the aggregate shape — any
// aggregate item or a GROUP BY — and so answers one row per group (or one
// row for a global aggregate) instead of one row per qualifying tuple.
func (s *Select) IsAggregate() bool {
	return len(s.GroupBy) > 0 || s.HasAggregates()
}

// CreateTable creates an auxiliary relation (ordinary SQL table).
type CreateTable struct {
	Name      string
	Temporary bool
	Schema    *schema.Schema // nil when created AS SELECT
	AsSelect  *Select
}

func (*CreateTable) stmt() {}

// CreatePopulation creates a population relation (paper Sec 3.1 (1)).
type CreatePopulation struct {
	Name     string
	Global   bool
	Schema   *schema.Schema // explicit attribute list; may be nil with AS
	AsSelect *Select        // definition over the global population
}

func (*CreatePopulation) stmt() {}

// CreateSample creates a sample relation (paper Sec 3.1 (2)).
type CreateSample struct {
	Name      string
	Schema    *schema.Schema
	From      string              // the global population sampled from
	Where     expr.Expr           // optional defining predicate
	Columns   []string            // projected attributes from the SELECT
	Star      bool                // SELECT *
	Mechanism mechanism.Mechanism // the USING MECHANISM clause; nil without one
}

func (*CreateSample) stmt() {}

// AlterSample installs or replaces a sample's mechanism:
// ALTER SAMPLE s USING MECHANISM m. It is how a mechanism set through the
// Go API enters the statement log.
type AlterSample struct {
	Sample    string
	Mechanism mechanism.Mechanism
}

func (*AlterSample) stmt() {}

// String renders the statement; for the mechanisms of package mechanism it
// parses back to an equal statement.
func (a *AlterSample) String() string {
	return "ALTER SAMPLE " + a.Sample + " USING MECHANISM " + a.Mechanism.Name()
}

// CreateMetadata attaches a marginal to a population (paper Sec 3.2).
// The marginal is a 1-D or 2-D GROUP BY COUNT(*) over an auxiliary relation.
// The target population is the explicit FOR clause when present, else it is
// inferred from the metadata name's prefix before the last underscore
// (the paper's EuropeMigrants_M1 convention).
type CreateMetadata struct {
	Name       string
	Population string // optional explicit FOR <population>
	Attrs      []string
	CountExpr  expr.Expr // optional SUM-style expression; nil means COUNT(*)
	From       string
	Where      expr.Expr
	// Bins maps attribute name → histogram bin width (the optional
	// WITH BINS (attr w [, attr w]) clause for continuous attributes).
	Bins map[string]float64
}

func (*CreateMetadata) stmt() {}

// TargetPopulation resolves the population the metadata applies to.
func (c *CreateMetadata) TargetPopulation() string {
	if c.Population != "" {
		return c.Population
	}
	if i := strings.LastIndex(c.Name, "_"); i > 0 {
		return c.Name[:i]
	}
	return c.Name
}

// Insert adds literal rows to a relation. Into a sample, a row may end in
// a WEIGHT clause, VALUES (…) WEIGHT w, which sets its tuple weight whatever
// the sample's columns are named.
type Insert struct {
	Table   string
	Columns []string // optional column list
	Rows    [][]expr.Expr
	Weights []expr.Expr // Weights[i]: row i's WEIGHT clause, nil or past the end if none
}

func (*Insert) stmt() {}

// UpdateWeights sets sample tuple weights (the paper's "update the initial
// sample weights via a similar command"): UPDATE SAMPLE s SET WEIGHT = e
// [WHERE p].
type UpdateWeights struct {
	Sample string
	Weight expr.Expr
	Where  expr.Expr
}

func (*UpdateWeights) stmt() {}

// Drop removes a relation of any kind.
type Drop struct {
	Kind string // "TABLE", "POPULATION", "SAMPLE", "METADATA"
	Name string
}

func (*Drop) stmt() {}

// Explain wraps a SELECT and asks the engine to describe its plan (the
// resolved visibility, chosen sample, marginal scope, and debiasing
// technique) instead of executing it.
type Explain struct {
	Query *Select
}

func (*Explain) stmt() {}

// Copy bulk-loads rows into a table or sample from one of two sources:
//
//   - a CSV file: COPY <relation> FROM '<path>' [WITH HEADER];
//   - an inline block: COPY <relation> (<col>, …[, WEIGHT]) FROM STDIN;
//     then one row per line, ended by a line \. (see Block).
type Copy struct {
	Table  string
	Path   string // the CSV file, when Block is nil
	Header bool   // the CSV file's first record names its columns
	Block  *Block // the inline rows, or nil for a CSV file
}

func (*Copy) stmt() {}

// String renders the statement as it parses back: a block with its header,
// every row of Vals and its end line (not the bad row Err names, nor the
// rows after it).
func (c *Copy) String() string {
	if c.Block != nil {
		b := c.Block
		w := len(b.Columns)
		out := AppendBlock(nil, c.Table, b.Columns, b.Len(), func(i int) []value.Value { return b.Vals[i*w : (i+1)*w] })
		return strings.TrimSuffix(string(out), "\n")
	}
	s := "COPY " + c.Table + " FROM " + value.Text(c.Path).SQL()
	if c.Header {
		s += " WITH HEADER"
	}
	return s
}

// Block is the inline source of a COPY, a block of rows. It is defined to
// load what INSERT INTO <relation> (<Columns>) VALUES (<row>), … would: the
// same coercions, dictionary order and, into a sample, weights, except that
// a last column WEIGHT after the relation's columns is the tuple weight even
// when the relation has a column of that name. Each field is a literal as
// value.AppendSQL spells it: a number, FLOAT '<float>', NULL, TRUE, FALSE
// or a quoted TEXT in which a quote is doubled. Fields are separated by a
// tab, and a row ends at a newline outside quotes, so a TEXT may hold
// either, or a line \..
type Block struct {
	Columns []string
	// Vals holds the rows that scanned, len(Columns) values to a row, in
	// row order. A TEXT value may share memory with the script.
	Vals []value.Value
	// Err is the error of the first row that did not scan, the row after
	// those in Vals; nil when every row scanned. Like INSERT's bad row, it
	// fails the statement after the rows before it are stored.
	Err error
}

// Len returns the number of rows in Vals.
func (b *Block) Len() int { return len(b.Vals) / len(b.Columns) }
