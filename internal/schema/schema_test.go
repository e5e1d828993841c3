package schema

import (
	"testing"

	"mosaic/internal/value"
)

func mk(t *testing.T, attrs ...Attribute) *Schema {
	t.Helper()
	s, err := New(attrs...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewRejectsDuplicates(t *testing.T) {
	_, err := New(
		Attribute{Name: "a", Kind: value.KindInt},
		Attribute{Name: "A", Kind: value.KindText},
	)
	if err == nil {
		t.Error("case-insensitive duplicate should be rejected")
	}
	_, err = New(Attribute{Name: "", Kind: value.KindInt})
	if err == nil {
		t.Error("empty name should be rejected")
	}
}

func TestIndexCaseInsensitive(t *testing.T) {
	s := mk(t,
		Attribute{Name: "Country", Kind: value.KindText},
		Attribute{Name: "count", Kind: value.KindInt},
	)
	for _, name := range []string{"country", "COUNTRY", "Country"} {
		if i, ok := s.Index(name); !ok || i != 0 {
			t.Errorf("Index(%q) = %d, %v", name, i, ok)
		}
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("missing attribute found")
	}
}

func TestKindLookup(t *testing.T) {
	s := mk(t, Attribute{Name: "x", Kind: value.KindFloat})
	k, err := s.Kind("X")
	if err != nil || k != value.KindFloat {
		t.Errorf("Kind: %v, %v", k, err)
	}
	if _, err := s.Kind("y"); err == nil {
		t.Error("Kind on missing attribute should fail")
	}
}

func TestProject(t *testing.T) {
	s := mk(t,
		Attribute{Name: "a", Kind: value.KindInt},
		Attribute{Name: "b", Kind: value.KindText},
		Attribute{Name: "c", Kind: value.KindFloat},
	)
	p, idxs, err := s.Project([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.At(0).Name != "c" || p.At(1).Name != "a" {
		t.Errorf("projection order wrong: %v", p.Names())
	}
	if idxs[0] != 2 || idxs[1] != 0 {
		t.Errorf("projection indices wrong: %v", idxs)
	}
	if _, _, err := s.Project([]string{"z"}); err == nil {
		t.Error("projecting missing attribute should fail")
	}
}

func TestContains(t *testing.T) {
	big := mk(t,
		Attribute{Name: "a", Kind: value.KindInt},
		Attribute{Name: "b", Kind: value.KindText},
	)
	small := mk(t, Attribute{Name: "B", Kind: value.KindText})
	if !big.Contains(small) {
		t.Error("big should contain small (case-insensitive)")
	}
	wrongKind := mk(t, Attribute{Name: "b", Kind: value.KindInt})
	if big.Contains(wrongKind) {
		t.Error("kind mismatch must not count as contained")
	}
	if small.Contains(big) {
		t.Error("small must not contain big")
	}
}

func TestEqual(t *testing.T) {
	a := mk(t, Attribute{Name: "x", Kind: value.KindInt})
	b := mk(t, Attribute{Name: "X", Kind: value.KindInt})
	c := mk(t, Attribute{Name: "x", Kind: value.KindFloat})
	if !a.Equal(b) {
		t.Error("case-insensitive equal failed")
	}
	if a.Equal(c) {
		t.Error("kind mismatch should not be equal")
	}
}

func TestValidateCoercesAndChecksArity(t *testing.T) {
	s := mk(t,
		Attribute{Name: "i", Kind: value.KindInt},
		Attribute{Name: "f", Kind: value.KindFloat},
	)
	row := make([]value.Value, s.Len())
	err := s.ValidateInto(row, []value.Value{value.Float(3.0), value.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Kind() != value.KindInt || row[0].AsInt() != 3 {
		t.Errorf("float->int coercion: %v", row[0])
	}
	if row[1].Kind() != value.KindFloat || row[1].AsFloat() != 2 {
		t.Errorf("int->float coercion: %v", row[1])
	}
	if err := s.ValidateInto(row, []value.Value{value.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := s.ValidateInto(row, []value.Value{value.Text("x"), value.Int(1)}); err == nil {
		t.Error("text into int should fail")
	}
	// NULLs pass through.
	err = s.ValidateInto(row, []value.Value{value.Null(), value.Null()})
	if err != nil || !row[0].IsNull() || !row[1].IsNull() {
		t.Errorf("NULL validation: %v, %v", row, err)
	}
}

func TestStringRendering(t *testing.T) {
	s := mk(t,
		Attribute{Name: "a", Kind: value.KindInt},
		Attribute{Name: "b", Kind: value.KindText},
	)
	if got := s.String(); got != "(a INT, b TEXT)" {
		t.Errorf("String() = %q", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with duplicates should panic")
		}
	}()
	MustNew(Attribute{Name: "a", Kind: value.KindInt}, Attribute{Name: "a", Kind: value.KindInt})
}

func TestAttributesReturnsCopy(t *testing.T) {
	s := mk(t, Attribute{Name: "a", Kind: value.KindInt})
	attrs := s.Attributes()
	attrs[0].Name = "mutated"
	if s.At(0).Name != "a" {
		t.Error("Attributes() must return a copy")
	}
}
