// Package expr defines the scalar-expression AST shared by the SQL parser,
// the planner, and the executor, together with a row-at-a-time evaluator.
//
// Supported forms: column references, literals, unary minus/NOT, binary
// arithmetic (+ - * / %), comparisons (= != < <= > >=), AND/OR, IN (value
// list), and BETWEEN. Three-valued NULL logic follows SQL: any comparison
// with NULL is NULL, NULL AND FALSE is FALSE, NULL OR TRUE is TRUE.
package expr

import (
	"fmt"
	"math"
	"strings"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

// Expr is a scalar expression node.
type Expr interface {
	// Eval computes the expression over one row described by binding.
	Eval(b *Binding) (value.Value, error)
	// String renders the expression in SQL-ish syntax.
	String() string
	// Columns appends the column names referenced by the expression.
	Columns(dst []string) []string
}

// Binding supplies column values for one row during evaluation.
type Binding struct {
	Schema *schema.Schema
	Row    []value.Value
}

// Column is a reference to a named attribute.
type Column struct{ Name string }

// Eval implements Expr.
func (c *Column) Eval(b *Binding) (value.Value, error) {
	if b == nil || b.Schema == nil {
		return value.Null(), fmt.Errorf("expr: column %q evaluated without a row", c.Name)
	}
	i, ok := b.Schema.Index(c.Name)
	if !ok {
		return value.Null(), fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return b.Row[i], nil
}

func (c *Column) String() string { return c.Name }

// Columns implements Expr.
func (c *Column) Columns(dst []string) []string { return append(dst, c.Name) }

// Literal is a constant value.
type Literal struct{ Val value.Value }

// Eval implements Expr.
func (l *Literal) Eval(*Binding) (value.Value, error) { return l.Val, nil }

func (l *Literal) String() string { return l.Val.SQL() }

// Columns implements Expr.
func (l *Literal) Columns(dst []string) []string { return dst }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// Binary applies op to Left and Right.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

// Eval implements Expr.
func (e *Binary) Eval(b *Binding) (value.Value, error) {
	switch e.Op {
	case OpAnd, OpOr:
		return e.evalLogical(b)
	}
	lv, err := e.Left.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	rv, err := e.Right.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	switch e.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(e.Op, lv, rv)
	default:
		return evalCompare(e.Op, lv, rv)
	}
}

func (e *Binary) evalLogical(b *Binding) (value.Value, error) {
	lv, err := e.Left.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	// Short-circuit where 3VL permits.
	if !lv.IsNull() {
		lb, err := truth(lv)
		if err != nil {
			return value.Null(), err
		}
		if e.Op == OpAnd && !lb {
			return value.Bool(false), nil
		}
		if e.Op == OpOr && lb {
			return value.Bool(true), nil
		}
	}
	rv, err := e.Right.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	if rv.IsNull() || lv.IsNull() {
		// Remaining NULL cases: NULL AND TRUE, NULL OR FALSE, NULL op NULL,
		// and the symmetric ones where rv decides.
		if !rv.IsNull() {
			rb, err := truth(rv)
			if err != nil {
				return value.Null(), err
			}
			if e.Op == OpAnd && !rb {
				return value.Bool(false), nil
			}
			if e.Op == OpOr && rb {
				return value.Bool(true), nil
			}
		}
		return value.Null(), nil
	}
	rb, err := truth(rv)
	if err != nil {
		return value.Null(), err
	}
	lb, _ := truth(lv)
	if e.Op == OpAnd {
		return value.Bool(lb && rb), nil
	}
	return value.Bool(lb || rb), nil
}

func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// Columns implements Expr.
func (e *Binary) Columns(dst []string) []string {
	return e.Right.Columns(e.Left.Columns(dst))
}

// Unary is unary minus or NOT.
type Unary struct {
	Neg   bool // true: numeric negation; false: logical NOT
	Child Expr
}

// Eval implements Expr.
func (e *Unary) Eval(b *Binding) (value.Value, error) {
	v, err := e.Child.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	if v.IsNull() {
		return value.Null(), nil
	}
	if e.Neg {
		switch v.Kind() {
		case value.KindInt:
			return value.Int(-v.AsInt()), nil
		case value.KindFloat:
			return value.Float(-v.AsFloat()), nil
		default:
			return value.Null(), fmt.Errorf("expr: cannot negate %s", v.Kind())
		}
	}
	tb, err := truth(v)
	if err != nil {
		return value.Null(), err
	}
	return value.Bool(!tb), nil
}

func (e *Unary) String() string {
	if e.Neg {
		return "(-" + e.Child.String() + ")"
	}
	return "(NOT " + e.Child.String() + ")"
}

// Columns implements Expr.
func (e *Unary) Columns(dst []string) []string { return e.Child.Columns(dst) }

// In tests membership of Child in a literal list.
type In struct {
	Child  Expr
	List   []Expr
	Negate bool
}

// Eval implements Expr.
func (e *In) Eval(b *Binding) (value.Value, error) {
	cv, err := e.Child.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	if cv.IsNull() {
		return value.Null(), nil
	}
	sawNull := false
	for _, item := range e.List {
		iv, err := item.Eval(b)
		if err != nil {
			return value.Null(), err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if value.Equal(cv, iv) {
			return value.Bool(!e.Negate), nil
		}
	}
	if sawNull {
		return value.Null(), nil
	}
	return value.Bool(e.Negate), nil
}

func (e *In) String() string {
	parts := make([]string, len(e.List))
	for i, it := range e.List {
		parts[i] = it.String()
	}
	op := "IN"
	if e.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", e.Child, op, strings.Join(parts, ", "))
}

// Columns implements Expr.
func (e *In) Columns(dst []string) []string {
	dst = e.Child.Columns(dst)
	for _, it := range e.List {
		dst = it.Columns(dst)
	}
	return dst
}

// Between tests Lo <= Child <= Hi.
type Between struct {
	Child, Lo, Hi Expr
	Negate        bool
}

// Eval implements Expr.
func (e *Between) Eval(b *Binding) (value.Value, error) {
	cv, err := e.Child.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	lo, err := e.Lo.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	hi, err := e.Hi.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	if cv.IsNull() || lo.IsNull() || hi.IsNull() {
		return value.Null(), nil
	}
	in := value.Compare(cv, lo) >= 0 && value.Compare(cv, hi) <= 0
	return value.Bool(in != e.Negate), nil
}

func (e *Between) String() string {
	op := "BETWEEN"
	if e.Negate {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("(%s %s %s AND %s)", e.Child, op, e.Lo, e.Hi)
}

// Columns implements Expr.
func (e *Between) Columns(dst []string) []string {
	return e.Hi.Columns(e.Lo.Columns(e.Child.Columns(dst)))
}

// IsNull tests Child IS [NOT] NULL.
type IsNull struct {
	Child  Expr
	Negate bool
}

// Eval implements Expr.
func (e *IsNull) Eval(b *Binding) (value.Value, error) {
	v, err := e.Child.Eval(b)
	if err != nil {
		return value.Null(), err
	}
	return value.Bool(v.IsNull() != e.Negate), nil
}

func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.Child.String() + " IS NOT NULL)"
	}
	return "(" + e.Child.String() + " IS NULL)"
}

// Columns implements Expr.
func (e *IsNull) Columns(dst []string) []string { return e.Child.Columns(dst) }

func truth(v value.Value) (bool, error) {
	switch v.Kind() {
	case value.KindBool:
		return v.AsBool(), nil
	case value.KindInt:
		return v.AsInt() != 0, nil
	case value.KindFloat:
		return v.AsFloat() != 0, nil
	default:
		return false, fmt.Errorf("expr: %s is not a boolean", v.Kind())
	}
}

// Truthy evaluates e and reports whether the result is TRUE (NULL and FALSE
// both report false, matching WHERE semantics).
func Truthy(e Expr, b *Binding) (bool, error) {
	v, err := e.Eval(b)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return truth(v)
}

func evalArith(op BinOp, a, b value.Value) (value.Value, error) {
	if a.IsNull() || b.IsNull() {
		return value.Null(), nil
	}
	if !a.Numeric() || !b.Numeric() {
		return value.Null(), fmt.Errorf("expr: arithmetic on %s and %s", a.Kind(), b.Kind())
	}
	if a.Kind() == value.KindInt && b.Kind() == value.KindInt && op != OpDiv {
		ai, bi := a.AsInt(), b.AsInt()
		switch op {
		case OpAdd:
			return value.Int(ai + bi), nil
		case OpSub:
			return value.Int(ai - bi), nil
		case OpMul:
			return value.Int(ai * bi), nil
		case OpMod:
			if bi == 0 {
				return value.Null(), fmt.Errorf("expr: division by zero")
			}
			return value.Int(ai % bi), nil
		}
	}
	af, _ := a.Float64()
	bf, _ := b.Float64()
	switch op {
	case OpAdd:
		return value.Float(af + bf), nil
	case OpSub:
		return value.Float(af - bf), nil
	case OpMul:
		return value.Float(af * bf), nil
	case OpDiv:
		if bf == 0 {
			return value.Null(), fmt.Errorf("expr: division by zero")
		}
		return value.Float(af / bf), nil
	case OpMod:
		if bf == 0 {
			return value.Null(), fmt.Errorf("expr: division by zero")
		}
		return value.Float(math.Mod(af, bf)), nil
	default:
		return value.Null(), fmt.Errorf("expr: %s is not arithmetic", op)
	}
}

func evalCompare(op BinOp, a, b value.Value) (value.Value, error) {
	if a.IsNull() || b.IsNull() {
		return value.Null(), nil
	}
	c := value.Compare(a, b)
	switch op {
	case OpEq:
		return value.Bool(c == 0), nil
	case OpNe:
		return value.Bool(c != 0), nil
	case OpLt:
		return value.Bool(c < 0), nil
	case OpLe:
		return value.Bool(c <= 0), nil
	case OpGt:
		return value.Bool(c > 0), nil
	case OpGe:
		return value.Bool(c >= 0), nil
	default:
		return value.Null(), fmt.Errorf("expr: %s is not a comparison", op)
	}
}

// Col is shorthand for a column reference.
func Col(name string) Expr { return &Column{Name: name} }

// Lit is shorthand for a literal.
func Lit(v value.Value) Expr { return &Literal{Val: v} }

// Bin is shorthand for a binary node.
func Bin(op BinOp, l, r Expr) Expr { return &Binary{Op: op, Left: l, Right: r} }
