package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"mosaic/internal/value"
)

// TestBlockFieldsAreInsertLiterals: a block field scans to the value its
// spelling has in INSERT … VALUES, or fails where that INSERT fails; FLOAT
// bits are compared exactly.
func TestBlockFieldsAreInsertLiterals(t *testing.T) {
	for _, field := range []string{
		"0", "-0", "42", "-42", "007", "9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"1.5", "-2.5e-07", "1e+300", "1E5", ".5", "-.5", "1.", "5e-324", "1e999", "1e", "1e+",
		"FLOAT 'NaN'", "float '-0'", "FLOAT '+Inf'", "FLOAT '-Inf'", "FLOAT  '2.5'", "FLOAT 'x'",
		"NULL", "null", "TRUE", "False",
		"''", "'it''s'", "''''", "'a\tb'", "'line\n\\.\nend'", "'unterminated",
	} {
		ins, insErr := ParseStatement("INSERT INTO t VALUES (" + field + ")")
		var want value.Value
		if insErr == nil {
			want, insErr = ins.(*Insert).Rows[0][0].Eval(nil)
		}
		got, end, err := scanField(field+"\n", 0)
		if err == nil && end != len(field) {
			err = fmt.Errorf("scanned %d of %d bytes", end, len(field))
		}
		switch {
		case (err == nil) != (insErr == nil):
			t.Errorf("%q: block error %v, INSERT error %v", field, err, insErr)
		case err == nil && (got.Kind() != want.Kind() || got.Kind() == value.KindFloat && math.Float64bits(got.AsFloat()) != math.Float64bits(want.AsFloat()) ||
			got.Kind() != value.KindFloat && got != want):
			t.Errorf("%q: block value %#v, INSERT value %#v", field, got, want)
		}
	}
}

// TestBlockSourceSpansItsRows: a block statement's source runs from COPY
// through its \. line; the statement after it parses as usual; its rows
// are the values they spell, and a TEXT with no quote in it is a slice of
// the script, not a copy.
func TestBlockSourceSpansItsRows(t *testing.T) {
	src := "COPY t (a, b, WEIGHT) FROM STDIN;\n" +
		"1\t'plain'\t2.5\n" +
		"NULL\t'tab\there\nand \\. too'\tFLOAT '-0'\n" +
		"-7\t'it''s'\t1\n" +
		"\\.\n" +
		"SELECT a FROM t;\n" +
		"COPY t (a) FROM STDIN;\n\\."
	stmts, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("%d statements: %+v", len(stmts), stmts)
	}
	if want := src[:strings.Index(src, "\\.\n")+2]; stmts[0].Source != want {
		t.Errorf("source %q, want %q", stmts[0].Source, want)
	}
	if stmts[1].Source != "SELECT a FROM t" || stmts[2].Source != "COPY t (a) FROM STDIN;\n\\." {
		t.Errorf("sources %q, %q", stmts[1].Source, stmts[2].Source)
	}
	b := stmts[0].Stmt.(*Copy).Block
	want := []value.Value{
		value.Int(1), value.Text("plain"), value.Float(2.5),
		value.Null(), value.Text("tab\there\nand \\. too"), value.Float(math.Copysign(0, -1)),
		value.Int(-7), value.Text("it's"), value.Int(1),
	}
	if b.Err != nil || b.Len() != 3 || fmt.Sprint(b.Vals) != fmt.Sprint(want) || !math.Signbit(b.Vals[5].AsFloat()) {
		t.Errorf("rows %v (err %v), want %v", b.Vals, b.Err, want)
	}
	if p := unsafe.StringData(b.Vals[1].AsText()); p != unsafe.StringData(src[strings.Index(src, "plain"):]) {
		t.Error("a TEXT without quotes in it is copied out of the script")
	}
	if empty := stmts[2].Stmt.(*Copy).Block; empty.Len() != 0 || empty.Err != nil {
		t.Errorf("empty block: %d rows, %v", empty.Len(), empty.Err)
	}
}

// TestBlockErrors: a row that does not scan ends the block's rows, the
// rows before it kept, with its line; a block with no \. line, text after
// the header's ';', and a header without a column list are script errors.
func TestBlockErrors(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"COPY t (a, b) FROM STDIN;\n1\t2\n3\n4\t5\n\\.", "line 3: 1 fields for 2 columns"},
		{"COPY t (a, b) FROM STDIN;\n1\t2\n3\t4\t5\n\\.", "line 3: 3 fields for 2 columns"},
		{"COPY t (a) FROM STDIN;\n'x\ny'\n12abc\n\\.", `line 4: field 1: "12abc" is not one literal`},
		{"COPY t (a) FROM STDIN;\n1\n\n\\.", `line 3: invalid field ""`},
		{"COPY t (a) FROM STDIN;\n1\n@\n\\.", `line 3: invalid field "@"`},
	} {
		stmts, err := ParseScript(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		b := stmts[0].Stmt.(*Copy).Block
		if b.Err == nil || !strings.Contains(b.Err.Error(), c.want) || b.Len() != 1 {
			t.Errorf("%q: %d rows, error %v; want 1 row, then %q", c.src, b.Len(), b.Err, c.want)
		}
	}
	for _, c := range []struct{ src, want string }{
		{"COPY t (a) FROM STDIN;\n1\n\\.x\n", `line 1: no \. line ends the COPY block`},
		{"COPY t (a) FROM STDIN;\n'\n\\.\n", `line 1: no \. line ends the COPY block`},
		{"COPY t (a) FROM STDIN;", `no \. line ends the COPY block`},
		{"COPY t (a) FROM STDIN; -- rows\n1\n\\.", "start on the line after its ';'"},
		{"COPY t FROM STDIN;\n1\n\\.", "COPY … FROM STDIN needs a column list"},
		{"COPY t (a) FROM STDIN", "expected ';' and a block of rows"},
		{"COPY t (a) FROM 'f.csv'", "COPY from a file takes no column list"},
	} {
		if _, err := ParseScript(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want %q", c.src, err, c.want)
		}
	}
}
