package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func weightBits(t *testing.T, e *Engine, sample string) []uint64 {
	t.Helper()
	w := sampleTable(t, e, sample).Weights()
	out := make([]uint64, len(w))
	for i, x := range w {
		out[i] = math.Float64bits(x)
	}
	return out
}

// updateWorld holds S (c TEXT, x INT, y FLOAT, b BOOL), whose y has NULLs,
// NaN, ±Inf and -0 and whose b has NULLs, and W, whose column named weight
// shadows the WEIGHT pseudo-column.
func updateWorld(t *testing.T, rowExec bool) *Engine {
	t.Helper()
	e := NewEngine(Options{RowExec: rowExec, Workers: 2})
	exec1(t, e, `CREATE GLOBAL POPULATION P (c TEXT, x INT, y FLOAT, b BOOL, weight FLOAT);
CREATE SAMPLE S (c TEXT, x INT, y FLOAT, b BOOL) AS (SELECT c, x, y, b FROM P);
CREATE SAMPLE W (weight FLOAT, x INT) AS (SELECT weight, x FROM P);`)
	specials := []any{nil, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	var s, w [][]any
	for i := 0; i < 300; i++ {
		var y, b any = float64(i%13) - 4.5, i%3 == 0
		if i%7 == 0 {
			y = specials[(i/7)%len(specials)]
		}
		if i%11 == 0 {
			b = nil
		}
		s = append(s, []any{fmt.Sprintf("t%d", i%4), i % 10, y, b})
		w = append(w, []any{float64(i%5) / 2, i % 10})
	}
	if err := e.Ingest("S", s); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("W", w); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `UPDATE SAMPLE S SET WEIGHT = 1 + x % 3`)
	return e
}

// TestUpdateReadsWeight: WEIGHT in UPDATE SAMPLE's SET and WHERE is the
// tuple's weight before the statement, as in SELECT, and a column of that
// name wins — on the kernels and on the row loop alike. It was an unknown
// column.
func TestUpdateReadsWeight(t *testing.T) {
	for _, rowExec := range []bool{false, true} {
		e := NewEngine(Options{RowExec: rowExec})
		exec1(t, e, `CREATE GLOBAL POPULATION P (x INT, weight FLOAT);
CREATE SAMPLE S (x INT) AS (SELECT x FROM P);
CREATE SAMPLE W (x INT, weight FLOAT) AS (SELECT x, weight FROM P);
INSERT INTO S VALUES (1), (2), (3);
INSERT INTO W VALUES (1, 10), (2, 20);
UPDATE SAMPLE S SET WEIGHT = x;
UPDATE SAMPLE S SET WEIGHT = WEIGHT * 2;
UPDATE SAMPLE S SET WEIGHT = 7 WHERE WEIGHT > 3;
UPDATE SAMPLE W SET WEIGHT = weight + 1;
UPDATE SAMPLE W SET WEIGHT = 0 WHERE weight > 15;`)
		if got, want := sampleTable(t, e, "S").Weights(), []float64{2, 7, 7}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("RowExec %v: S weights %v, want %v", rowExec, got, want)
		}
		if got, want := sampleTable(t, e, "W").Weights(), []float64{11, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("RowExec %v: W weights %v, want %v", rowExec, got, want)
		}
		if got := scalar(t, e, "SELECT COUNT(*) FROM S"); got != 16 {
			t.Errorf("RowExec %v: COUNT(*) = %g, want 16", rowExec, got)
		}
	}
}

// TestUpdateKernelsMatchRowLoop: UPDATE SAMPLE … SET WEIGHT on the kernels
// leaves weights bit-identical to the row loop's (RowExec), or fails with
// the identical error, over weight expressions × WHEREs: division by zero
// in WHERE before and after a weight's, NULL, NaN, negative, BOOL and TEXT
// weights, and WEIGHT read as the pseudo-column and as a real column. The
// statements run in sequence, so later ones read the weights earlier ones
// left.
func TestUpdateKernelsMatchRowLoop(t *testing.T) {
	vec, row := updateWorld(t, false), updateWorld(t, true)
	// x is i % 10: WHERE 10 / (x - 3) first fails at row 3, before a weight
	// 1 / (x - 7) fails at row 7; 10 / (x - 9) fails only after it.
	weights := []string{
		"2", "x", "y", "-y", "x * 0.5", "x / 2", "x % 3", "1 / (x - 7)", "y / 0",
		"NULL", "-1", "x - 5", "c", "b", "WEIGHT * 2", "WEIGHT + x", "0.5 + (x % 100) / 100.0",
	}
	wheres := []string{
		"", "x > 4", "10 / (x - 3) > 0", "10 / (x - 9) < 100", "y IS NULL", "y IS NOT NULL",
		"y > 0", "WEIGHT > 1", "c = 't1'", "b", "NOT b", "x IN (1, 2, 3)",
	}
	nulls, failed := 0, 0
	for _, w := range weights {
		for _, where := range wheres {
			stmt := "UPDATE SAMPLE S SET WEIGHT = " + w
			if where != "" {
				stmt += " WHERE " + where
			}
			_, errV := vec.ExecScript(stmt)
			_, errR := row.ExecScript(stmt)
			if fmt.Sprint(errV) != fmt.Sprint(errR) {
				t.Fatalf("%s: kernels: %v, row loop: %v", stmt, errV, errR)
			}
			if errR != nil {
				failed++
			}
			if got, want := weightBits(t, vec, "S"), weightBits(t, row, "S"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: weights differ from the row loop's", stmt)
			}
			if slices.ContainsFunc(sampleTable(t, row, "S").Weights(), math.IsNaN) {
				nulls++ // a NULL weight stores NaN: reset it for the next statement
				exec1(t, vec, `UPDATE SAMPLE S SET WEIGHT = 1 + x % 3`)
				exec1(t, row, `UPDATE SAMPLE S SET WEIGHT = 1 + x % 3`)
			}
		}
	}
	if failed == 0 || nulls == 0 {
		t.Errorf("the grid should hold failing statements (%d) and NULL weights (%d)", failed, nulls)
	}
	for _, stmt := range []string{
		"UPDATE SAMPLE W SET WEIGHT = weight * 2",
		"UPDATE SAMPLE W SET WEIGHT = x + weight WHERE weight > 1",
		"UPDATE SAMPLE W SET WEIGHT = weight - 1",
	} {
		_, errV := vec.ExecScript(stmt)
		_, errR := row.ExecScript(stmt)
		if fmt.Sprint(errV) != fmt.Sprint(errR) {
			t.Fatalf("%s: kernels: %v, row loop: %v", stmt, errV, errR)
		}
		if got, want := weightBits(t, vec, "W"), weightBits(t, row, "W"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: weights differ from the row loop's", stmt)
		}
	}
}

// TestUpdatePerRowFormsMatchRowLoop: a WHERE or a weight the kernels do not
// compile runs per row inside the pipeline, and fails as the row loop does:
// the first failing row wins, whether the WHERE fails there or the weight
// of a kept row. x is i % 10, so WHERE x < 5 OR c + 1 > 0 keeps rows 0–4
// and fails at row 5 (TEXT arithmetic), 1 / (x - 2) fails at row 2 before
// it and 1 / (x - 7) at row 7 after it.
func TestUpdatePerRowFormsMatchRowLoop(t *testing.T) {
	vec, row := updateWorld(t, false), updateWorld(t, true)
	weights := []string{"x > 3", "x", "c", "1 / (x - 2)", "1 / (x - 7)", "b", "-b", "x > 3 AND c + 1 > 0"}
	wheres := []string{"", "x < 5 OR c + 1 > 0", "c = 't1' OR c + 1 > 0", "b OR x > 6", "(x > 2) = TRUE"}
	failed := 0
	for _, w := range weights {
		for _, where := range wheres {
			stmt := "UPDATE SAMPLE S SET WEIGHT = " + w
			if where != "" {
				stmt += " WHERE " + where
			}
			_, errV := vec.ExecScript(stmt)
			_, errR := row.ExecScript(stmt)
			if fmt.Sprint(errV) != fmt.Sprint(errR) {
				t.Fatalf("%s: pipeline: %v, row loop: %v", stmt, errV, errR)
			}
			if errR != nil {
				failed++
			}
			if got, want := weightBits(t, vec, "S"), weightBits(t, row, "S"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: weights differ from the row loop's", stmt)
			}
		}
	}
	if failed == 0 {
		t.Error("the grid should hold failing statements")
	}
}

// TestCreateMetadataWhereReadsWeight: CREATE METADATA's WHERE is the
// engine's one selection, so WEIGHT resolves as in SELECT — a sample
// source's tuple weight — where it was an unknown column. A count column
// that fails at a kept row fails before the WHERE's own error at a later
// row, as the row-by-row loop did.
func TestCreateMetadataWhereReadsWeight(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	exec1(t, e, `CREATE GLOBAL POPULATION P (g TEXT, x INT);
CREATE SAMPLE S AS (SELECT * FROM P);
INSERT INTO S VALUES ('a', 1), ('a', 2), ('b', 3), ('b', 4);
UPDATE SAMPLE S SET WEIGHT = x;
CREATE METADATA P_M FOR P AS (SELECT g, COUNT(*) FROM S WHERE WEIGHT > 1.5);
CREATE TABLE T (g TEXT, n INT, d INT);
INSERT INTO T VALUES ('a', 10, 1), ('b', 20, 0), ('c', 30, 5);`)
	p, _ := e.Catalog().Population("P")
	if got := p.Marginals["P_M"].Total(); got != 2+3+4 {
		t.Errorf("WHERE WEIGHT > 1.5: marginal total %g, want the weights 2 + 3 + 4", got)
	}
	for _, tc := range []struct{ stmt, want string }{
		{"CREATE METADATA P_B FOR P AS (SELECT g, n FROM T WHERE 1 / d > 0)", "expr: division by zero"},
		{"CREATE METADATA P_C FOR P AS (SELECT g, g FROM T WHERE 1 / d > 0)", "core: CREATE METADATA P_C: count column: value: cannot coerce TEXT to float"},
		{"CREATE METADATA P_D FOR P AS (SELECT g, n FROM T WHERE g + 1 > 0)", "expr: arithmetic on TEXT and INT"},
	} {
		if _, err := e.ExecScript(tc.stmt); err == nil || err.Error() != "statement 1: "+tc.want {
			t.Errorf("%s: %v, want %q", tc.stmt, err, tc.want)
		}
	}
}

// TestCreateMetadataCountReadsWeight: CREATE METADATA's count expression is
// evaluated as UPDATE SAMPLE's new weight is, so WEIGHT resolves in it as
// in its WHERE — a sample source's tuple weight — where it was an unknown
// column. A count that is negative or TEXT keeps its refusal.
func TestCreateMetadataCountReadsWeight(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	exec1(t, e, `CREATE GLOBAL POPULATION P (g TEXT, x INT);
CREATE SAMPLE S AS (SELECT * FROM P);
INSERT INTO S VALUES ('a', 1), ('a', 2), ('b', 3), ('b', -4);
UPDATE SAMPLE S SET WEIGHT = x * x;
CREATE METADATA P_M FOR P AS (SELECT g, SUM(WEIGHT) FROM S GROUP BY g);
CREATE METADATA P_N FOR P AS (SELECT g, SUM(WEIGHT / 2) FROM S WHERE WEIGHT > 1 GROUP BY g);`)
	p, _ := e.Catalog().Population("P")
	for name, want := range map[string]float64{"P_M": 1 + 4 + 9 + 16, "P_N": (4 + 9 + 16) / 2.0} {
		if got := p.Marginals[name].Total(); got != want {
			t.Errorf("%s: marginal total %g, want %g", name, got, want)
		}
	}
	for _, tc := range []struct{ stmt, want string }{
		{"CREATE METADATA P_X FOR P AS (SELECT g, SUM(x) FROM S GROUP BY g)", "marginal P_X: negative count -4"},
		{"CREATE METADATA P_Y FOR P AS (SELECT x, SUM(g) FROM S GROUP BY x)", "core: CREATE METADATA P_Y: count column: value: cannot coerce TEXT to float"},
	} {
		if _, err := e.ExecScript(tc.stmt); err == nil || err.Error() != "statement 1: "+tc.want {
			t.Errorf("%s: %v, want %q", tc.stmt, err, tc.want)
		}
	}
}

// TestUnknownNameRefusedAtAnyRowCount: UPDATE SAMPLE and CREATE METADATA
// refuse a name that resolves nowhere whether or not a row reaches it, on
// the pipeline and on the row loop alike. The refusal used to depend on how
// many rows the WHERE kept.
func TestUnknownNameRefusedAtAnyRowCount(t *testing.T) {
	for _, rowExec := range []bool{false, true} {
		e := NewEngine(Options{RowExec: rowExec, Workers: 2})
		exec1(t, e, `CREATE GLOBAL POPULATION P (g TEXT, x INT);
CREATE SAMPLE S AS (SELECT * FROM P);
INSERT INTO S VALUES ('a', 1), ('b', 2), ('c', 3);`)
		for _, where := range []string{"x > 5", "x > 2", "x > 0"} {
			for _, tc := range []struct{ stmt, name string }{
				{"UPDATE SAMPLE S SET WEIGHT = nosuch WHERE %s", "nosuch"},
				{"UPDATE SAMPLE S SET WEIGHT = nosuch WHERE %s AND other > 0", "other"},
				{"CREATE METADATA P_M FOR P AS (SELECT g, SUM(nosuch) FROM S WHERE %s GROUP BY g)", "nosuch"},
				{"CREATE METADATA P_M FOR P AS (SELECT g, COUNT(*) FROM S WHERE %s OR nosuch > 0 GROUP BY g)", "nosuch"},
				{"CREATE METADATA P_M FOR P AS (SELECT g, SUM(nosuch) FROM S WHERE %s AND other > 0 GROUP BY g)", "other"},
			} {
				stmt := fmt.Sprintf(tc.stmt, where)
				want := fmt.Sprintf("statement 1: expr: unknown column %q", tc.name)
				if _, err := e.ExecScript(stmt); err == nil || err.Error() != want {
					t.Errorf("RowExec %v: %s: %v, want %q", rowExec, stmt, err, want)
				}
			}
		}
	}
}
