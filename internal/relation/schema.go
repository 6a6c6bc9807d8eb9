package relation

import (
	"fmt"
	"strings"
)

// Schema is an ordered list of distinct attribute names. The order fixes the
// column layout of tuples in a Relation; set-level reasoning uses AttrSet().
type Schema struct {
	attrs []string
	pos   map[string]int
}

// NewSchema builds a schema with the given attribute order. It returns an
// error if an attribute repeats or a name is empty.
func NewSchema(attrs ...string) (*Schema, error) {
	s := &Schema{
		attrs: append([]string(nil), attrs...),
		pos:   make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: empty attribute name at position %d", i)
		}
		if _, dup := s.pos[a]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q in schema", a)
		}
		s.pos[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for literals in tests and
// examples.
func MustSchema(attrs ...string) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// SchemaOfRunes builds a schema whose attributes are the runes of s in order;
// SchemaOfRunes("ABC") has columns A, B, C. This matches the paper's
// notation.
func SchemaOfRunes(s string) *Schema {
	attrs := make([]string, 0, len(s))
	for _, r := range s {
		attrs = append(attrs, string(r))
	}
	return MustSchema(attrs...)
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attrs returns the attributes in column order. The caller must not modify
// the returned slice.
func (s *Schema) Attrs() []string { return s.attrs }

// Has reports whether attr is a column of the schema.
func (s *Schema) Has(attr string) bool {
	_, ok := s.pos[attr]
	return ok
}

// Position returns the column index of attr and whether it exists.
func (s *Schema) Position(attr string) (int, bool) {
	i, ok := s.pos[attr]
	return i, ok
}

// AttrSet returns the schema's attributes as a set.
func (s *Schema) AttrSet() AttrSet { return NewAttrSet(s.attrs...) }

// Positions returns the column indexes of the given attributes, in the order
// given. It returns an error naming the first attribute that is missing.
func (s *Schema) Positions(attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := s.pos[a]
		if !ok {
			return nil, fmt.Errorf("relation: attribute %q not in schema %s", a, s)
		}
		out[i] = p
	}
	return out, nil
}

// CommonPositions returns, for each attribute present in both s and t (in
// sorted attribute order), its column index in s and in t.
func CommonPositions(s, t *Schema) (inS, inT []int) {
	common := s.AttrSet().Intersect(t.AttrSet())
	inS = make([]int, len(common))
	inT = make([]int, len(common))
	for i, a := range common {
		inS[i], _ = s.Position(a)
		inT[i], _ = t.Position(a)
	}
	return inS, inT
}

// String renders the schema like its attribute set, preserving column order:
// "ABC" for single-character attributes, otherwise "(a,b,c)".
func (s *Schema) String() string {
	compact := true
	for _, a := range s.attrs {
		if len(a) != 1 {
			compact = false
			break
		}
	}
	if compact {
		return strings.Join(s.attrs, "")
	}
	return "(" + strings.Join(s.attrs, ",") + ")"
}
