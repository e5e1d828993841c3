// Package value defines the typed scalar values stored in Mosaic relations.
//
// Mosaic stores four scalar kinds: 64-bit integers, 64-bit floats, strings,
// and booleans, plus NULL. Values are small immutable structs passed by
// value; they support the total order used by ORDER BY, the equality used by
// GROUP BY hashing, and the numeric coercions used by the expression engine.
//
// A Value is 40 bytes on 64-bit platforms: the kind and the BOOL payload
// share the first word, followed by the INT, FLOAT and TEXT payloads. Row
// buffers and answers are arrays of Values, so this size is the size of
// every answer cell; the executor writes each answer into one slab of
// Values, a column at a time.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types Mosaic supports.
type Kind uint8

// The supported value kinds. KindNull is the type of the SQL NULL literal.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a SQL type name to a Kind. It accepts the common aliases
// (INTEGER, BIGINT, DOUBLE, REAL, VARCHAR, STRING, BOOLEAN).
func ParseKind(name string) (Kind, error) {
	switch name {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return KindFloat, nil
	case "TEXT", "STRING", "VARCHAR", "CHAR":
		return KindText, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("value: unknown type name %q", name)
	}
}

// Value is a single typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	b    bool // beside kind, in the padding before i: 40 bytes, not 48
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an INT value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool returns a BOOL value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the int64 payload. It panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return v.i
}

// AsFloat returns the float64 payload. It panics unless Kind is KindFloat.
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("value: AsFloat on %s", v.kind))
	}
	return v.f
}

// AsText returns the string payload. It panics unless Kind is KindText.
func (v Value) AsText() string {
	if v.kind != KindText {
		panic(fmt.Sprintf("value: AsText on %s", v.kind))
	}
	return v.s
}

// AsBool returns the bool payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.kind))
	}
	return v.b
}

// Numeric reports whether the value is INT or FLOAT.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Float64 coerces a numeric or boolean value to float64. NULL coerces to NaN.
// Text values return an error.
func (v Value) Float64() (float64, error) {
	switch v.kind {
	case KindInt:
		return float64(v.i), nil
	case KindFloat:
		return v.f, nil
	case KindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case KindNull:
		return math.NaN(), nil
	default:
		return 0, fmt.Errorf("value: cannot coerce %s to float", v.kind)
	}
}

// String renders the value for display: its SQL literal, except that a
// FLOAT prints as strconv formats it, so NaN, ±Inf and -0 read "NaN",
// "+Inf", "-Inf" and "-0", which do not parse back.
func (v Value) String() string {
	if v.kind == KindFloat {
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	}
	return v.SQL()
}

// SQL renders the value as a literal that parses back to the same value
// (see AppendSQL).
func (v Value) SQL() string { return string(AppendSQL(nil, v)) }

// AppendSQL appends v as a SQL literal that parses back to the same value
// and bits. It is String's rendering, except for the FLOATs whose String
// would not: NaN, ±Inf and -0 are written as the typed literal
// FLOAT '<strconv form>', i.e. FLOAT 'NaN', FLOAT '+Inf', FLOAT '-Inf' and
// FLOAT '-0'. NaN payloads are not kept: every NaN reads back as the
// canonical NaN, as on the wire.
func AppendSQL(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		if math.IsNaN(v.f) || math.IsInf(v.f, 0) || v.f == 0 && math.Signbit(v.f) {
			dst = append(dst, "FLOAT '"...)
			dst = strconv.AppendFloat(dst, v.f, 'g', -1, 64)
			return append(dst, '\'')
		}
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindText:
		dst = append(dst, '\'')
		for s := v.s; ; {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				dst = append(dst, s...)
				break
			}
			dst = append(dst, s[:i+1]...)
			dst = append(dst, '\'')
			s = s[i+1:]
		}
		return append(dst, '\'')
	case KindBool:
		if v.b {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	default:
		return append(dst, '?')
	}
}

// FromRaw builds a Value from a Go-native scalar. Supported inputs: nil,
// int, int32, int64, float32, float64, string, bool.
func FromRaw(x any) (Value, error) {
	switch t := x.(type) {
	case nil:
		return Null(), nil
	case int:
		return Int(int64(t)), nil
	case int32:
		return Int(int64(t)), nil
	case int64:
		return Int(t), nil
	case float32:
		return Float(float64(t)), nil
	case float64:
		return Float(t), nil
	case string:
		return Text(t), nil
	case bool:
		return Bool(t), nil
	default:
		return Null(), fmt.Errorf("value: unsupported Go type %T", x)
	}
}

// Compare imposes a total order: NULL < BOOL < numerics < TEXT, returning
// -1, 0 or +1. It is PostgreSQL's order for numbers: NaN equals NaN and sorts
// above every other number, +Inf included, and -0 equals 0. Two INTs compare
// as int64; an INT and a FLOAT compare as float64. Within a kind, and between
// an INT and a FLOAT where float64 holds the INT exactly, Compare(a, b) == 0
// exactly when a.HashKey() == b.HashKey().
func Compare(a, b Value) int {
	ra, rb := rank(a.kind), rank(b.kind)
	switch {
	case ra != rb:
		return cmp.Compare(ra, rb)
	case a.kind == KindNull:
		return 0
	case a.kind == KindBool:
		return boolCmp(a.b, b.b)
	case a.kind == KindInt && b.kind == KindInt:
		return cmp.Compare(a.i, b.i)
	case a.Numeric():
		af, _ := a.Float64()
		bf, _ := b.Float64()
		return CompareFloat(af, bf)
	default: // text
		return strings.Compare(a.s, b.s)
	}
}

// CompareFloat is Compare's order over two float64s: -1, 0 or +1, with NaN
// equal to NaN and above every other number, and -0 equal to 0.
func CompareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return boolCmp(x != x, y != y) // equal, or a NaN: NaN above every number
}

func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Equal reports SQL equality under the numeric coercions of Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// HashKey returns a string that is equal for equal values (under Equal) and
// is suitable as a Go map key for GROUP BY hashing. A number's key is its
// float64 in shortest form, with -0 written as 0 and every NaN as NaN, so an
// INT and a FLOAT of equal value share it; an INT that float64 cannot hold
// exactly (beyond ±2^53) keeps its own digits, which no FLOAT's key has.
func (v Value) HashKey() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindBool:
		if v.b {
			return "\x01t"
		}
		return "\x01f"
	case KindInt:
		if f := float64(v.i); f != 0x1p63 && int64(f) == v.i {
			return "\x02" + strconv.FormatFloat(f, 'g', -1, 64)
		}
		return "\x02" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "\x02" + strconv.FormatFloat(v.f+0, 'g', -1, 64) // -0 + 0 is 0
	default:
		return "\x03" + v.s
	}
}

// FromHashKey returns a value whose HashKey is k — numbers as FLOAT, except
// an INT that float64 cannot hold — and false when no value has that key.
func FromHashKey(k string) (Value, bool) {
	switch {
	case k == "\x00":
		return Null(), true
	case k == "\x01t", k == "\x01f":
		return Bool(k == "\x01t"), true
	case strings.HasPrefix(k, "\x02"):
		if f, err := strconv.ParseFloat(k[1:], 64); err == nil && Float(f).HashKey() == k {
			return Float(f), true
		}
		i, err := strconv.ParseInt(k[1:], 10, 64)
		return Int(i), err == nil && Int(i).HashKey() == k
	case strings.HasPrefix(k, "\x03"):
		return Text(k[1:]), true
	}
	return Null(), false
}

// Class partitions kinds the way HashKey's leading tag byte does: NULL,
// BOOL, numeric (INT and FLOAT share a class because they compare with each
// other), and TEXT.
type Class uint8

// The value classes, in HashKey tag order.
const (
	ClassNull Class = iota
	ClassBool
	ClassNum
	ClassText
)

// canonicalNaN is the single bit pattern all NaNs normalize to, mirroring
// HashKey where every NaN formats as "NaN" and lands in one group: the bits
// of math.NaN(), whose sign bit is clear, unlike the NaN that x86
// arithmetic produces.
const canonicalNaN = 0x7ff8000000000001

// NumBits maps a float64 onto a 64-bit identity code: the raw IEEE bits
// with -0 folded to +0 and every NaN collapsed to one pattern. Two floats
// have equal codes exactly when their HashKeys are equal, that is when
// Compare finds them equal.
func NumBits(f float64) uint64 {
	b := math.Float64bits(f + 0) // -0 + 0 is 0
	if f != f {
		b = canonicalNaN // a conditional move, not a branch
	}
	return b
}

// OrderWord maps a float64 onto a uint64 whose unsigned order is
// CompareFloat's: its NumBits (-0 as +0, which compare equal, and every NaN
// as the one positive NaN, which sorts above +Inf), all bits flipped if
// negative, else the sign bit set. No branch. Sorting these words stably
// (radix.Sort) sorts the floats in Compare's order.
func OrderWord(f float64) uint64 {
	b := NumBits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Coerce converts v to the target kind if a lossless/sane conversion exists:
// INT↔FLOAT, anything→its own kind, NULL→any. Other conversions error.
func Coerce(v Value, k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return Float(float64(v.i)), nil
	case v.kind == KindFloat && k == KindInt:
		return Int(int64(v.f)), nil
	default:
		return Null(), fmt.Errorf("value: cannot coerce %s to %s", v.kind, k)
	}
}
