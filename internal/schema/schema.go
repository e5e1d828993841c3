// Package schema describes the attribute layout of Mosaic relations.
package schema

import (
	"fmt"
	"strings"

	"mosaic/internal/value"
)

// Attribute is a single named, typed column.
type Attribute struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of attributes. Attribute names are
// case-insensitive and must be unique within a schema.
type Schema struct {
	attrs []Attribute
	index map[string]int // lower-cased name -> position
}

// New builds a Schema from attributes, validating name uniqueness.
func New(attrs ...Attribute) (*Schema, error) {
	s := &Schema{index: make(map[string]int, len(attrs))}
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema: empty attribute name")
		}
		key := strings.ToLower(a.Name)
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("schema: duplicate attribute %q", a.Name)
		}
		s.index[key] = len(s.attrs)
		s.attrs = append(s.attrs, a)
	}
	return s, nil
}

// MustNew is New but panics on error; for use with compile-time-known schemas.
func MustNew(attrs ...Attribute) *Schema {
	s, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// At returns the attribute at position i.
func (s *Schema) At(i int) Attribute { return s.attrs[i] }

// Attributes returns a copy of the attribute list.
func (s *Schema) Attributes() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Index returns the position of the named attribute (case-insensitive) and
// whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// Kind returns the type of the named attribute.
func (s *Schema) Kind(name string) (value.Kind, error) {
	i, ok := s.Index(name)
	if !ok {
		return value.KindNull, fmt.Errorf("schema: no attribute %q", name)
	}
	return s.attrs[i].Kind, nil
}

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Project returns a new schema containing only the named attributes, in the
// given order.
func (s *Schema) Project(names []string) (*Schema, []int, error) {
	attrs := make([]Attribute, 0, len(names))
	idxs := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := s.Index(n)
		if !ok {
			return nil, nil, fmt.Errorf("schema: no attribute %q", n)
		}
		attrs = append(attrs, s.attrs[i])
		idxs = append(idxs, i)
	}
	ns, err := New(attrs...)
	if err != nil {
		return nil, nil, err
	}
	return ns, idxs, nil
}

// Contains reports whether every attribute of other appears in s with the
// same kind. The paper's Sec 4 assumption 1 (population attrs ⊆ sample attrs)
// is checked with this.
func (s *Schema) Contains(other *Schema) bool {
	for _, a := range other.attrs {
		i, ok := s.Index(a.Name)
		if !ok || s.attrs[i].Kind != a.Kind {
			return false
		}
	}
	return true
}

// Equal reports whether two schemas have identical names (case-insensitive)
// and kinds in the same order.
func (s *Schema) Equal(other *Schema) bool {
	if s.Len() != other.Len() {
		return false
	}
	for i := range s.attrs {
		if !strings.EqualFold(s.attrs[i].Name, other.attrs[i].Name) ||
			s.attrs[i].Kind != other.attrs[i].Kind {
			return false
		}
	}
	return true
}

// String renders the schema as "(a INT, b TEXT)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", a.Name, a.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// ValidateInto checks a row of values against the schema, coercing
// INT↔FLOAT where needed, and writes the (possibly coerced) row into dst,
// which must hold Len values. On error dst holds a prefix of the row and
// must not be used.
func (s *Schema) ValidateInto(dst, row []value.Value) error {
	if len(row) != len(s.attrs) {
		return fmt.Errorf("schema: row has %d values, schema has %d attributes", len(row), len(s.attrs))
	}
	for i, v := range row {
		cv, err := value.Coerce(v, s.attrs[i].Kind)
		if err != nil {
			return fmt.Errorf("schema: attribute %q: %v", s.attrs[i].Name, err)
		}
		dst[i] = cv
	}
	return nil
}
