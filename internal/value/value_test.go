package value

import (
	"cmp"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// Raw returns the Go-native payload (int64, float64, string, bool, or nil):
// the inverse FromRaw is held to.
func (v Value) Raw() any {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return v.f
	case KindText:
		return v.s
	case KindBool:
		return v.b
	default:
		return nil
	}
}

// TestValueSize pins the 40-byte layout. b sits next to kind, inside the
// padding that aligns i; placed last it would cost a word of its own, and
// every slab, row buffer and answer would be a fifth larger (48 bytes).
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindText: "TEXT", KindBool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKindAliases(t *testing.T) {
	cases := map[string]Kind{
		"INT": KindInt, "INTEGER": KindInt, "BIGINT": KindInt,
		"FLOAT": KindFloat, "DOUBLE": KindFloat, "REAL": KindFloat,
		"TEXT": KindText, "VARCHAR": KindText, "STRING": KindText,
		"BOOL": KindBool, "BOOLEAN": KindBool,
	}
	for name, want := range cases {
		got, err := ParseKind(name)
		if err != nil {
			t.Errorf("ParseKind(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("ParseKind(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) broken: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) broken: %v", v)
	}
	if v := Text("abc"); v.Kind() != KindText || v.AsText() != "abc" {
		t.Errorf("Text broken: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool broken: %v", v)
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull broken")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AsInt on Text should panic")
		}
	}()
	Text("x").AsInt()
}

func TestFloat64Coercions(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
	}{
		{Int(3), 3}, {Float(1.5), 1.5}, {Bool(true), 1}, {Bool(false), 0},
	}
	for _, c := range cases {
		got, err := c.v.Float64()
		if err != nil || got != c.want {
			t.Errorf("%v.Float64() = %v, %v; want %v", c.v, got, err, c.want)
		}
	}
	if f, err := Null().Float64(); err != nil || !math.IsNaN(f) {
		t.Errorf("Null().Float64() = %v, %v; want NaN", f, err)
	}
	if _, err := Text("x").Float64(); err == nil {
		t.Error("Text.Float64() should fail")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// NULL < BOOL < numeric < TEXT
	ordered := []Value{
		Null(), Bool(false), Bool(true), Int(-5), Float(-1.5), Int(0),
		Float(0.5), Int(1), Int(7), Text(""), Text("a"), Text("b"),
	}
	for i := range ordered {
		for j := range ordered {
			c := Compare(ordered[i], ordered[j])
			switch {
			case i < j && c >= 0 && Compare(ordered[j], ordered[i]) <= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestCompareIntFloatMix(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Compare(Int(2), Float(2.5)) >= 0 {
		t.Error("Int(2) should be < Float(2.5)")
	}
	if Compare(Float(3.5), Int(3)) <= 0 {
		t.Error("Float(3.5) should be > Int(3)")
	}
	// Large ints compare exactly.
	big := int64(1) << 62
	if Compare(Int(big), Int(big+1)) != -1 {
		t.Error("large int comparison lost precision")
	}
}

func TestHashKeyEqualValuesEqualKeys(t *testing.T) {
	if Int(2).HashKey() != Float(2.0).HashKey() {
		t.Error("Int(2) and Float(2.0) must share a hash key")
	}
	if Int(2).HashKey() == Int(3).HashKey() {
		t.Error("distinct ints must differ")
	}
	if Text("2").HashKey() == Int(2).HashKey() {
		t.Error("Text(\"2\") must not collide with Int(2)")
	}
	if Null().HashKey() == Bool(false).HashKey() {
		t.Error("NULL must not collide with FALSE")
	}
}

func TestCompareConsistentWithHashKey(t *testing.T) {
	// Property: Equal(a,b) ⟺ same HashKey, over random numeric values.
	f := func(a int32, b float32) bool {
		va, vb := Int(int64(a)), Float(float64(b))
		return Equal(va, vb) == (va.HashKey() == vb.HashKey())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		va, vb, vc := Float(a), Float(b), Float(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// orderPool holds every kind's edge values: NULL, both BOOLs, INTs at and
// beyond ±2^53, FLOATs with NaN (the canonical one, x86's negative one and
// another payload), ±Inf, ±0 and the smallest subnormal, and TEXT.
func orderPool() []Value {
	pool := []Value{Null(), Bool(false), Bool(true), Text(""), Text("0"), Text("a"), Text("b")}
	for _, i := range []int64{0, 1, -1, 2, 1 << 53, 1<<53 - 1, 1<<53 + 1, -(1 << 53), -(1<<53 + 1), 1 << 62, 1<<62 + 1, math.MaxInt64, math.MinInt64} {
		pool = append(pool, Int(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 2, 0.5, 1 << 53, -(1 << 53), 1 << 62, 0x1p63, -0x1p63, 1e300, -1e300, 5e-324,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000123)} {
		pool = append(pool, Float(f))
	}
	return pool
}

// sameIdentityRule reports whether Compare's equality is HashKey's for the
// pair: always within a kind, and between an INT and a FLOAT while the INT
// is within ±2^53 (beyond it the two compare as float64 but hash apart).
func sameIdentityRule(a, b Value) bool {
	for _, p := range [][2]Value{{a, b}, {b, a}} {
		if p[0].Kind() == KindInt && p[1].Kind() == KindFloat && (p[0].AsInt() > 1<<53 || p[0].AsInt() < -(1<<53)) {
			return false
		}
	}
	return true
}

// TestCompareIsHashKeyOrder holds Compare to a strict weak order whose
// equality is HashKey equality, over every pair and triple of the pool
// under that rule: antisymmetric, transitive in < and in ==, and
// Compare(a, b) == 0 exactly when a.HashKey() == b.HashKey(). NaN equals
// NaN and sorts above +Inf, and -0 is 0.
func TestCompareIsHashKeyOrder(t *testing.T) {
	pool := orderPool()
	for _, a := range pool {
		for _, b := range pool {
			if !sameIdentityRule(a, b) {
				continue
			}
			c := Compare(a, b)
			if c != -Compare(b, a) {
				t.Errorf("Compare(%v, %v) = %d, Compare(%v, %v) = %d", a, b, c, b, a, Compare(b, a))
			}
			if (c == 0) != (a.HashKey() == b.HashKey()) {
				t.Errorf("Compare(%v, %v) = %d but HashKeys %q, %q", a, b, c, a.HashKey(), b.HashKey())
			}
			for _, d := range pool {
				if !sameIdentityRule(b, d) || !sameIdentityRule(a, d) {
					continue
				}
				if e := Compare(b, d); c <= 0 && e <= 0 && Compare(a, d) != min(c, e) {
					t.Errorf("Compare(%v, %v) = %d, Compare(%v, %v) = %d, but Compare(%v, %v) = %d", a, b, c, b, d, e, a, d, Compare(a, d))
				}
			}
		}
	}
	nan, inf, negZero := Float(math.NaN()), Float(math.Inf(1)), Float(math.Copysign(0, -1))
	if Compare(nan, inf) != 1 || Compare(nan, Float(math.Float64frombits(0xfff8000000000000))) != 0 || Compare(negZero, Int(0)) != 0 {
		t.Error("want NaN > +Inf, NaN = -NaN and -0 = 0")
	}
	if NumBits(math.Copysign(0, -1)) != NumBits(0) || NumBits(math.Float64frombits(0xfff8000000000000)) != math.Float64bits(math.NaN()) {
		t.Error("NumBits must fold -0 to 0 and every NaN to math.NaN()'s bits")
	}
}

// TestOrderWordIsCompareFloat: over every pair of a pool of special floats
// — ±0, ±Inf, NaNs of both signs and several payloads, subnormals, the
// smallest normals and ±MaxFloat64 — the unsigned order of the words is
// CompareFloat's, equality included.
func TestOrderWordIsCompareFloat(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1 + 0x1p-52, -1 - 0x1p-52, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074)}
	for _, nan := range []uint64{0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0xfff0000000000123, 0x7fffffffffffffff, 0xffffffffffffffff} {
		pool = append(pool, math.Float64frombits(nan))
	}
	for _, x := range pool {
		for _, y := range pool {
			wx, wy := OrderWord(x), OrderWord(y)
			if got, want := cmp.Compare(wx, wy), CompareFloat(x, y); got != want {
				t.Errorf("OrderWord(%v) = %#x, OrderWord(%v) = %#x: order %d, CompareFloat %d", x, wx, y, wy, got, want)
			}
		}
	}
}

// TestFromHashKeyRoundTrip requires FromHashKey to invert HashKey on every
// pool value, an INT beyond ±2^53 included.
func TestFromHashKeyRoundTrip(t *testing.T) {
	for _, v := range orderPool() {
		w, ok := FromHashKey(v.HashKey())
		if !ok || w.HashKey() != v.HashKey() {
			t.Errorf("FromHashKey(%q) = %v, %v", v.HashKey(), w, ok)
		}
	}
	if Int(1<<53).HashKey() == Int(1<<53+1).HashKey() {
		t.Error("2^53 and 2^53+1 must hash apart")
	}
	if _, ok := FromHashKey("\x02x"); ok {
		t.Error("a key no value has must report false")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{Text("hi"), "'hi'"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	ins := []any{nil, int(5), int32(6), int64(7), float32(1.5), float64(2.5), "s", true}
	for _, in := range ins {
		v, err := FromRaw(in)
		if err != nil {
			t.Errorf("FromRaw(%v): %v", in, err)
			continue
		}
		switch x := in.(type) {
		case nil:
			if !v.IsNull() {
				t.Error("nil should round-trip to NULL")
			}
		case int:
			if v.Raw() != int64(x) {
				t.Errorf("int round trip: %v", v.Raw())
			}
		case int32:
			if v.Raw() != int64(x) {
				t.Errorf("int32 round trip: %v", v.Raw())
			}
		case float32:
			if v.Raw() != float64(x) {
				t.Errorf("float32 round trip: %v", v.Raw())
			}
		default:
			if v.Raw() != in {
				t.Errorf("round trip %v -> %v", in, v.Raw())
			}
		}
	}
	if _, err := FromRaw(struct{}{}); err == nil {
		t.Error("FromRaw(struct{}{}) should fail")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(Int(3), KindFloat)
	if err != nil || v.AsFloat() != 3 {
		t.Errorf("Coerce int->float: %v, %v", v, err)
	}
	v, err = Coerce(Float(3.9), KindInt)
	if err != nil || v.AsInt() != 3 {
		t.Errorf("Coerce float->int: %v, %v", v, err)
	}
	if v, err := Coerce(Null(), KindText); err != nil || !v.IsNull() {
		t.Errorf("NULL coerces to anything: %v, %v", v, err)
	}
	if _, err := Coerce(Text("x"), KindInt); err == nil {
		t.Error("text->int must fail")
	}
	if v, err := Coerce(Text("x"), KindText); err != nil || v.AsText() != "x" {
		t.Errorf("identity coerce: %v, %v", v, err)
	}
}
