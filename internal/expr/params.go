package expr

import (
	"fmt"

	"mosaic/internal/value"
)

// Param is a positional `?` placeholder. Placeholders are numbered
// left-to-right from 0 by the parser and carry no value of their own:
// executing an expression that still contains one is an error, and the
// prepared-statement layer replaces every Param with a Literal (via
// ReplaceParams) before the tree reaches an evaluator — so a bound query is
// structurally identical to the same query with the literal spelled inline.
type Param struct{ Index int }

// Eval implements Expr. A Param that survives to evaluation was never bound.
func (p *Param) Eval(*Binding) (value.Value, error) {
	return value.Null(), fmt.Errorf("expr: unbound parameter ?%d (bind values with a prepared statement)", p.Index+1)
}

func (p *Param) String() string { return "?" }

// Columns implements Expr.
func (p *Param) Columns(dst []string) []string { return dst }

// ReplaceParams returns e with every Param node replaced by the literal at
// its index. Nodes without params are returned unchanged (pointer-identical),
// so unparameterized trees cost nothing to bind.
func ReplaceParams(e Expr, vals []value.Value) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	switch ex := e.(type) {
	case *Param:
		if ex.Index < 0 || ex.Index >= len(vals) {
			return nil, fmt.Errorf("expr: parameter ?%d out of range (%d bound)", ex.Index+1, len(vals))
		}
		return &Literal{Val: vals[ex.Index]}, nil
	case *Literal, *Column:
		return e, nil
	case *Unary:
		child, err := ReplaceParams(ex.Child, vals)
		if err != nil {
			return nil, err
		}
		if child == ex.Child {
			return e, nil
		}
		return &Unary{Neg: ex.Neg, Child: child}, nil
	case *Binary:
		l, err := ReplaceParams(ex.Left, vals)
		if err != nil {
			return nil, err
		}
		r, err := ReplaceParams(ex.Right, vals)
		if err != nil {
			return nil, err
		}
		if l == ex.Left && r == ex.Right {
			return e, nil
		}
		return &Binary{Op: ex.Op, Left: l, Right: r}, nil
	case *In:
		child, err := ReplaceParams(ex.Child, vals)
		if err != nil {
			return nil, err
		}
		list := ex.List
		copied := false
		for i, item := range ex.List {
			fi, err := ReplaceParams(item, vals)
			if err != nil {
				return nil, err
			}
			if fi != item {
				if !copied {
					list = append([]Expr(nil), ex.List...)
					copied = true
				}
				list[i] = fi
			}
		}
		if child == ex.Child && !copied {
			return e, nil
		}
		return &In{Child: child, List: list, Negate: ex.Negate}, nil
	case *Between:
		child, err := ReplaceParams(ex.Child, vals)
		if err != nil {
			return nil, err
		}
		lo, err := ReplaceParams(ex.Lo, vals)
		if err != nil {
			return nil, err
		}
		hi, err := ReplaceParams(ex.Hi, vals)
		if err != nil {
			return nil, err
		}
		if child == ex.Child && lo == ex.Lo && hi == ex.Hi {
			return e, nil
		}
		return &Between{Child: child, Lo: lo, Hi: hi, Negate: ex.Negate}, nil
	case *IsNull:
		child, err := ReplaceParams(ex.Child, vals)
		if err != nil {
			return nil, err
		}
		if child == ex.Child {
			return e, nil
		}
		return &IsNull{Child: child, Negate: ex.Negate}, nil
	default:
		return e, nil
	}
}
