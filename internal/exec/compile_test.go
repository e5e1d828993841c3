package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mosaic/internal/expr"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// motivationSelects hold operands that are neither a column nor numeric
// arithmetic: IN over a non-constant list, BETWEEN with column bounds, IS
// NULL and = over BOOL expressions, TEXT read as a boolean, negated and in
// arithmetic, BOOL in arithmetic, BOOL aggregate inputs and a computed
// select item.
var motivationSelects = []string{
	"SELECT * FROM t WHERE x IN (y, n, NULL)",
	"SELECT * FROM t WHERE x BETWEEN n AND y",
	"SELECT * FROM t WHERE (x > 1) IS NULL",
	"SELECT * FROM t WHERE (x > 500) = (y > 50)",
	"SELECT * FROM t WHERE c",
	"SELECT * FROM t WHERE NOT c",
	"SELECT * FROM t WHERE -c > 1",
	"SELECT * FROM t WHERE b + 1 > 1",
	"SELECT c, COUNT(x > 3), MAX(c = 'g1') FROM t GROUP BY c",
	"SELECT x / 2, c FROM t",
}

// compileExprs collects every WHERE and every non-star select item (an
// aggregate's input included) of srcs, as parsed: the executor compiles the
// parsed trees.
func compileExprs(t *testing.T, srcs []string) []expr.Expr {
	t.Helper()
	var out []expr.Expr
	for _, src := range srcs {
		sel, err := sql.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if sel.Where != nil {
			out = append(out, sel.Where)
		}
		for _, it := range sel.Items {
			if !it.Star {
				out = append(out, it.Expr)
			}
		}
	}
	return out
}

// TestEveryExpressionCompiles: every expression that passes the name check
// compiles to an operand, and the operand agrees with the interpreter row
// by row — its values where Eval succeeds, a failing row exactly where
// Eval fails, and, read as a boolean, expr.Truthy's outcome. The
// expressions are every WHERE, select item and aggregate input of the
// differential grid (diffWheres × diffShapes), of TestFirstErrorRuleGrid,
// and motivationSelects, over diffTable and nanTable.
func TestEveryExpressionCompiles(t *testing.T) {
	var srcs []string
	for _, shape := range diffShapes {
		for _, where := range diffWheres {
			srcs = append(srcs, fmt.Sprintf(shape, where))
		}
	}
	for _, shape := range firstErrorShapes {
		for _, where := range firstErrorWheres {
			srcs = append(srcs, fmt.Sprintf(shape, where))
		}
	}
	srcs = append(srcs, motivationSelects...)
	seen := map[string]bool{}
	var es []expr.Expr
	for _, e := range compileExprs(t, srcs) {
		if !seen[e.String()] {
			seen[e.String()] = true
			es = append(es, e)
		}
	}
	for _, tbl := range []*table.Table{diffTable(t, 200, 7), nanTable(t, 200, 7)} {
		snap := tbl.Snapshot()
		env := makeEnv(snap.Schema())
		for _, e := range es {
			if CheckNames(snap.Schema(), e) != nil {
				continue // refused before any row is read
			}
			c := &kernelCompiler{snap: snap, weights: snap.Weights(), n: snap.Len(), workers: 2}
			o := c.operand(e)
			at, errs := c.values(o)
			tern := c.tern(c.truthOf(o))
			for i := 0; i < snap.Len(); i++ {
				b := env.at(snap, i, snap.Weight(i))
				want, err := e.Eval(b)
				truthy, terr := expr.Truthy(e, b)
				wantTern := ternOf(truthy)
				switch {
				case terr != nil:
					wantTern = ternErr
				case want.IsNull():
					wantTern = ternNull
				}
				if tern[i] != wantTern {
					t.Errorf("%s at row %d: truth %s, interpreter %s (%v)", e, i, ternNames[tern[i]], ternNames[wantTern], terr)
				}
				if failed := bitGet(errs, i); failed != (err != nil) {
					t.Errorf("%s at row %d: operand fails %v, interpreter error %v", e, i, failed, err)
					continue
				}
				if err == nil && !sameValue(at(i), want) {
					t.Errorf("%s at row %d: operand %v (%s), interpreter %v (%s)", e, i, at(i), at(i).Kind(), want, want.Kind())
				}
			}
		}
	}
}

// sameValue is value identity down to the float bits: kinds equal, and a
// FLOAT's bits equal (any NaN matching any NaN).
func sameValue(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return value.Equal(a, b)
}

// TestRowErrorRefusesARowTheInterpreterPasses: when the interpreter does
// not fail at the row a kernel marked, the statement gets an internal error
// naming the row, not an answer.
func TestRowErrorRefusesARowTheInterpreterPasses(t *testing.T) {
	snap := diffTable(t, 10, 1).Snapshot()
	err := rowError(snap, 3, snap.Weight(3), func(*expr.Binding) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "internal error") || !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("rowError on a passing row: %v", err)
	}
}

// TestConstantTruthIsOneOutcome: a numeric, NULL or failing constant read
// as a boolean — WHERE 1, WHERE NULL, an AND arm, NOT's child — is one
// outcome for every row, with no table-length vector behind it.
func TestConstantTruthIsOneOutcome(t *testing.T) {
	snap := diffTable(t, 200, 7).Snapshot()
	for _, src := range []string{"1", "0", "0.5", "NULL", "1 / 0", "-NULL", "NULL + x"} {
		c := &kernelCompiler{snap: snap, weights: snap.Weights(), n: snap.Len(), workers: 1}
		k, ok := c.compile(q(t, "SELECT * FROM t WHERE "+src).Where).(*constKernel)
		if !ok || k.nulls != nil || k.errs != nil {
			t.Errorf("WHERE %s compiles to %T %+v, want one constant outcome", src, k, k)
		}
	}
}

// TestCompileStopsOnCancelledContext: the compile-time fills — an
// arithmetic payload, a BOOL operand's truth vector read by IS NULL or as a
// value — stop at a cancelled context, and the compiler keeps its error.
func TestCompileStopsOnCancelledContext(t *testing.T) {
	snap := diffTable(t, 4*morselRows, 7).Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []string{"x / 2 + y", "(x > 1) IS NULL", "x IN (y, n)", "x > 3"} {
		c := &kernelCompiler{ctx: ctx, snap: snap, weights: snap.Weights(), n: snap.Len(), workers: 1}
		c.values(c.operand(q(t, "SELECT "+src+" FROM t").Items[0].Expr))
		if !errors.Is(c.err, context.Canceled) {
			t.Errorf("%s under a cancelled context: compiler error %v", src, c.err)
		}
	}
}
