package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

var sc = schema.MustNew(
	schema.Attribute{Name: "i", Kind: value.KindInt},
	schema.Attribute{Name: "f", Kind: value.KindFloat},
	schema.Attribute{Name: "s", Kind: value.KindText},
	schema.Attribute{Name: "b", Kind: value.KindBool},
)

func bind(i int64, f float64, s string, b bool) *Binding {
	return &Binding{Schema: sc, Row: []value.Value{
		value.Int(i), value.Float(f), value.Text(s), value.Bool(b),
	}}
}

func eval(t *testing.T, e Expr, b *Binding) value.Value {
	t.Helper()
	v, err := e.Eval(b)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestColumnLookup(t *testing.T) {
	b := bind(7, 1.5, "x", true)
	if got := eval(t, Col("i"), b); got.AsInt() != 7 {
		t.Errorf("i = %v", got)
	}
	if got := eval(t, Col("S"), b); got.AsText() != "x" {
		t.Errorf("case-insensitive column: %v", got)
	}
	if _, err := Col("nope").Eval(b); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := Col("i").Eval(nil); err == nil {
		t.Error("column without binding should fail")
	}
}

func TestArithmetic(t *testing.T) {
	b := bind(6, 2.5, "", false)
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{Bin(OpAdd, Col("i"), Lit(value.Int(2))), value.Int(8)},
		{Bin(OpSub, Col("i"), Lit(value.Int(10))), value.Int(-4)},
		{Bin(OpMul, Col("i"), Lit(value.Int(3))), value.Int(18)},
		{Bin(OpDiv, Col("i"), Lit(value.Int(4))), value.Float(1.5)},
		{Bin(OpAdd, Col("f"), Lit(value.Float(0.5))), value.Float(3.0)},
		{Bin(OpMul, Col("i"), Col("f")), value.Float(15)},
	}
	for _, c := range cases {
		got := eval(t, c.e, b)
		if value.Compare(got, c.want) != 0 {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	if _, err := Bin(OpDiv, Col("i"), Lit(value.Int(0))).Eval(b); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := Bin(OpAdd, Col("s"), Lit(value.Int(1))).Eval(b); err == nil {
		t.Error("text arithmetic should fail")
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	b := bind(1, 1, "", false)
	e := Bin(OpAdd, Lit(value.Null()), Col("i"))
	if got := eval(t, e, b); !got.IsNull() {
		t.Errorf("NULL + i = %v, want NULL", got)
	}
}

func TestComparisons(t *testing.T) {
	b := bind(5, 2.5, "abc", true)
	trueCases := []Expr{
		Bin(OpEq, Col("i"), Lit(value.Int(5))),
		Bin(OpNe, Col("i"), Lit(value.Int(6))),
		Bin(OpLt, Col("f"), Lit(value.Float(3))),
		Bin(OpLe, Col("i"), Lit(value.Float(5.0))),
		Bin(OpGt, Col("s"), Lit(value.Text("ab"))),
		Bin(OpGe, Col("i"), Lit(value.Int(5))),
	}
	for _, e := range trueCases {
		if got := eval(t, e, b); !got.AsBool() {
			t.Errorf("%s = %v, want TRUE", e, got)
		}
	}
	if got := eval(t, Bin(OpEq, Col("i"), Lit(value.Null())), b); !got.IsNull() {
		t.Errorf("comparison with NULL should be NULL, got %v", got)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	b := bind(1, 1, "", true)
	null := Lit(value.Null())
	tru := Lit(value.Bool(true))
	fls := Lit(value.Bool(false))

	cases := []struct {
		e    Expr
		want value.Value
	}{
		{Bin(OpAnd, null, fls), value.Bool(false)},
		{Bin(OpAnd, fls, null), value.Bool(false)},
		{Bin(OpAnd, null, tru), value.Null()},
		{Bin(OpAnd, tru, null), value.Null()},
		{Bin(OpOr, null, tru), value.Bool(true)},
		{Bin(OpOr, tru, null), value.Bool(true)},
		{Bin(OpOr, null, fls), value.Null()},
		{Bin(OpOr, fls, null), value.Null()},
		{Bin(OpAnd, null, null), value.Null()},
	}
	for _, c := range cases {
		got := eval(t, c.e, b)
		if got.IsNull() != c.want.IsNull() || (!got.IsNull() && got.AsBool() != c.want.AsBool()) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestLogicShortCircuit(t *testing.T) {
	// The right side errors, but short-circuiting must avoid evaluating it.
	b := bind(1, 1, "", true)
	bad := Bin(OpDiv, Lit(value.Int(1)), Lit(value.Int(0)))
	e := Bin(OpAnd, Lit(value.Bool(false)), bad)
	if got := eval(t, e, b); got.AsBool() {
		t.Error("FALSE AND err should be FALSE")
	}
	e = Bin(OpOr, Lit(value.Bool(true)), bad)
	if got := eval(t, e, b); !got.AsBool() {
		t.Error("TRUE OR err should be TRUE")
	}
}

func TestUnary(t *testing.T) {
	b := bind(5, -2.5, "", false)
	if got := eval(t, &Unary{Neg: true, Child: Col("i")}, b); got.AsInt() != -5 {
		t.Errorf("-i = %v", got)
	}
	if got := eval(t, &Unary{Neg: true, Child: Col("f")}, b); got.AsFloat() != 2.5 {
		t.Errorf("-f = %v", got)
	}
	if got := eval(t, &Unary{Neg: false, Child: Col("b")}, b); !got.AsBool() {
		t.Errorf("NOT false-col = %v, want TRUE", got)
	}
	if got := eval(t, &Unary{Neg: false, Child: Lit(value.Null())}, b); !got.IsNull() {
		t.Errorf("NOT NULL = %v", got)
	}
	if _, err := (&Unary{Neg: true, Child: Col("s")}).Eval(b); err == nil {
		t.Error("negating text should fail")
	}
}

func TestIn(t *testing.T) {
	b := bind(2, 0, "WN", false)
	in := &In{Child: Col("s"), List: []Expr{Lit(value.Text("WN")), Lit(value.Text("AA"))}}
	if got := eval(t, in, b); !got.AsBool() {
		t.Error("'WN' IN ('WN','AA') should be TRUE")
	}
	notIn := &In{Child: Col("s"), List: in.List, Negate: true}
	if got := eval(t, notIn, b); got.AsBool() {
		t.Error("NOT IN should be FALSE")
	}
	miss := &In{Child: Col("i"), List: []Expr{Lit(value.Int(9))}}
	if got := eval(t, miss, b); got.AsBool() {
		t.Error("2 IN (9) should be FALSE")
	}
	// NULL member with no match: NULL result.
	withNull := &In{Child: Col("i"), List: []Expr{Lit(value.Int(9)), Lit(value.Null())}}
	if got := eval(t, withNull, b); !got.IsNull() {
		t.Errorf("IN with NULL member = %v, want NULL", got)
	}
	// NULL member with a match: TRUE.
	withNullHit := &In{Child: Col("i"), List: []Expr{Lit(value.Int(2)), Lit(value.Null())}}
	if got := eval(t, withNullHit, b); !got.AsBool() {
		t.Error("IN with NULL member but a match should be TRUE")
	}
}

func TestBetween(t *testing.T) {
	b := bind(5, 0, "", false)
	e := &Between{Child: Col("i"), Lo: Lit(value.Int(1)), Hi: Lit(value.Int(5))}
	if got := eval(t, e, b); !got.AsBool() {
		t.Error("5 BETWEEN 1 AND 5 should be TRUE (inclusive)")
	}
	e = &Between{Child: Col("i"), Lo: Lit(value.Int(6)), Hi: Lit(value.Int(9))}
	if got := eval(t, e, b); got.AsBool() {
		t.Error("5 BETWEEN 6 AND 9 should be FALSE")
	}
	e = &Between{Child: Col("i"), Lo: Lit(value.Int(6)), Hi: Lit(value.Int(9)), Negate: true}
	if got := eval(t, e, b); !got.AsBool() {
		t.Error("NOT BETWEEN should be TRUE")
	}
	e = &Between{Child: Col("i"), Lo: Lit(value.Null()), Hi: Lit(value.Int(9))}
	if got := eval(t, e, b); !got.IsNull() {
		t.Error("BETWEEN with NULL bound should be NULL")
	}
}

func TestIsNull(t *testing.T) {
	b := bind(1, 1, "", false)
	if got := eval(t, &IsNull{Child: Lit(value.Null())}, b); !got.AsBool() {
		t.Error("NULL IS NULL should be TRUE")
	}
	if got := eval(t, &IsNull{Child: Col("i"), Negate: true}, b); !got.AsBool() {
		t.Error("i IS NOT NULL should be TRUE")
	}
}

func TestTruthyWhereSemantics(t *testing.T) {
	b := bind(1, 1, "", false)
	// NULL predicates filter rows out (Truthy false, no error).
	ok, err := Truthy(Lit(value.Null()), b)
	if err != nil || ok {
		t.Errorf("Truthy(NULL) = %v, %v", ok, err)
	}
	ok, err = Truthy(Lit(value.Int(3)), b)
	if err != nil || !ok {
		t.Errorf("Truthy(3) = %v, %v; nonzero ints are truthy", ok, err)
	}
	if _, err := Truthy(Lit(value.Text("x")), b); err == nil {
		t.Error("Truthy over text should fail")
	}
}

func TestColumnsCollection(t *testing.T) {
	e := Bin(OpAnd,
		Bin(OpGt, Col("a"), Lit(value.Int(1))),
		&In{Child: Col("b"), List: []Expr{Col("c")}},
	)
	cols := e.Columns(nil)
	joined := strings.Join(cols, ",")
	if joined != "a,b,c" {
		t.Errorf("Columns = %v", cols)
	}
	be := &Between{Child: Col("x"), Lo: Col("y"), Hi: Col("z")}
	if got := strings.Join(be.Columns(nil), ","); got != "x,y,z" {
		t.Errorf("Between.Columns = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	e := Bin(OpAnd, Bin(OpGt, Col("E"), Lit(value.Int(200))), Col("b"))
	if got := e.String(); got != "((E > 200) AND b)" {
		t.Errorf("String = %q", got)
	}
}

func TestComparisonMatchesValueCompareProperty(t *testing.T) {
	// Property: OpLt agrees with value.Compare for random int pairs.
	f := func(a, b int64) bool {
		bnd := bind(0, 0, "", false)
		e := Bin(OpLt, Lit(value.Int(a)), Lit(value.Int(b)))
		v, err := e.Eval(bnd)
		if err != nil {
			return false
		}
		return v.AsBool() == (value.Compare(value.Int(a), value.Int(b)) < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithCommutativityProperty(t *testing.T) {
	f := func(a, b int32) bool {
		bnd := bind(0, 0, "", false)
		e1 := Bin(OpAdd, Lit(value.Int(int64(a))), Lit(value.Int(int64(b))))
		e2 := Bin(OpAdd, Lit(value.Int(int64(b))), Lit(value.Int(int64(a))))
		v1, err1 := e1.Eval(bnd)
		v2, err2 := e2.Eval(bnd)
		if err1 != nil || err2 != nil {
			return false
		}
		return value.Equal(v1, v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllNodeStringRenderings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Lit(value.Null()), "NULL"},
		{Lit(value.Bool(true)), "TRUE"},
		{&In{Child: Col("c"), List: []Expr{Lit(value.Int(1)), Lit(value.Int(2))}}, "(c IN (1, 2))"},
		{&In{Child: Col("c"), List: []Expr{Lit(value.Int(1))}, Negate: true}, "(c NOT IN (1))"},
		{&Between{Child: Col("x"), Lo: Lit(value.Int(1)), Hi: Lit(value.Int(5))}, "(x BETWEEN 1 AND 5)"},
		{&Between{Child: Col("x"), Lo: Lit(value.Int(1)), Hi: Lit(value.Int(5)), Negate: true}, "(x NOT BETWEEN 1 AND 5)"},
		{&IsNull{Child: Col("x")}, "(x IS NULL)"},
		{&IsNull{Child: Col("x"), Negate: true}, "(x IS NOT NULL)"},
		{&Unary{Neg: true, Child: Col("x")}, "(-x)"},
		{&Unary{Neg: false, Child: Col("x")}, "(NOT x)"},
		{Bin(OpDiv, Col("a"), Col("b")), "(a / b)"},
		{Bin(OpSub, Col("a"), Col("b")), "(a - b)"},
		{Bin(OpLe, Col("a"), Col("b")), "(a <= b)"},
		{Bin(OpGe, Col("a"), Col("b")), "(a >= b)"},
		{Bin(OpNe, Col("a"), Col("b")), "(a != b)"},
		{Bin(OpOr, Col("a"), Col("b")), "(a OR b)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestEvalErrorPropagation(t *testing.T) {
	b := bind(1, 1, "", true)
	boom := Bin(OpDiv, Lit(value.Int(1)), Lit(value.Int(0)))
	// Errors propagate through every container node.
	containers := []Expr{
		Bin(OpAdd, boom, Col("i")),
		Bin(OpEq, Col("i"), boom),
		Bin(OpAnd, Lit(value.Bool(true)), boom),
		Bin(OpOr, Lit(value.Bool(false)), boom),
		&Unary{Neg: true, Child: boom},
		&In{Child: boom, List: []Expr{Lit(value.Int(1))}},
		&In{Child: Col("i"), List: []Expr{boom}},
		&Between{Child: boom, Lo: Lit(value.Int(0)), Hi: Lit(value.Int(2))},
		&Between{Child: Col("i"), Lo: boom, Hi: Lit(value.Int(2))},
		&Between{Child: Col("i"), Lo: Lit(value.Int(0)), Hi: boom},
		&IsNull{Child: boom},
	}
	for _, e := range containers {
		if _, err := e.Eval(b); err == nil {
			t.Errorf("%s should propagate the division error", e)
		}
	}
	if _, err := Truthy(boom, b); err == nil {
		t.Error("Truthy should propagate errors")
	}
}

func TestLogicalErrorOnNonBoolean(t *testing.T) {
	b := bind(1, 1, "txt", true)
	if _, err := Bin(OpAnd, Col("s"), Lit(value.Bool(true))).Eval(b); err == nil {
		t.Error("AND over text should fail")
	}
	if _, err := Bin(OpOr, Lit(value.Bool(false)), Col("s")).Eval(b); err == nil {
		t.Error("OR over text should fail")
	}
}

func TestBinOpStringCoverage(t *testing.T) {
	for _, op := range []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr} {
		if op.String() == "" {
			t.Errorf("op %d has empty string", op)
		}
	}
}

func TestIntArithmeticStaysInt(t *testing.T) {
	b := bind(0, 0, "", false)
	v, err := Bin(OpMul, Lit(value.Int(3)), Lit(value.Int(4))).Eval(b)
	if err != nil || v.Kind() != value.KindInt || v.AsInt() != 12 {
		t.Errorf("int*int = %v (%v), want INT 12", v, err)
	}
	// Division always yields FLOAT.
	v, err = Bin(OpDiv, Lit(value.Int(8)), Lit(value.Int(2))).Eval(b)
	if err != nil || v.Kind() != value.KindFloat || v.AsFloat() != 4 {
		t.Errorf("int/int = %v (%v), want FLOAT 4", v, err)
	}
}

func TestModulo(t *testing.T) {
	b := bind(7, 2.5, "x", true)
	if got := eval(t, Bin(OpMod, Col("i"), Lit(value.Int(4))), b); got.Kind() != value.KindInt || got.AsInt() != 3 {
		t.Errorf("7 %% 4 = %v", got)
	}
	if got := eval(t, Bin(OpMod, Lit(value.Int(-7)), Lit(value.Int(4))), b); got.AsInt() != -3 {
		t.Errorf("-7 %% 4 = %v (Go truncated semantics expected)", got)
	}
	if got := eval(t, Bin(OpMod, Col("f"), Lit(value.Int(2))), b); got.Kind() != value.KindFloat || got.AsFloat() != math.Mod(2.5, 2) {
		t.Errorf("2.5 %% 2 = %v", got)
	}
	if got := eval(t, Bin(OpMod, Col("i"), Lit(value.Null())), b); !got.IsNull() {
		t.Errorf("7 %% NULL = %v, want NULL", got)
	}
	for _, zero := range []Expr{Lit(value.Int(0)), Lit(value.Float(0))} {
		if _, err := Bin(OpMod, Col("i"), zero).Eval(b); err == nil || err.Error() != "expr: division by zero" {
			t.Errorf("i %% %s error = %v, want division by zero", zero, err)
		}
	}
	if _, err := Bin(OpMod, Col("s"), Lit(value.Int(2))).Eval(b); err == nil {
		t.Error("TEXT %% INT should error")
	}
}
