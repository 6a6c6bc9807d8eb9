package relation

import (
	"slices"
	"strings"
	"testing"
)

func TestInsertDedupes(t *testing.T) {
	r := New(SchemaOfRunes("AB"))
	r.MustInsert(Ints(1, 2))
	r.MustInsert(Ints(1, 2))
	r.MustInsert(Ints(2, 1))
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(Ints(1, 2)) || r.Contains(Ints(9, 9)) {
		t.Error("Contains wrong")
	}
}

func TestInsertArityMismatch(t *testing.T) {
	r := New(SchemaOfRunes("AB"))
	if err := r.Insert(Ints(1)); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestMustInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInsert did not panic on arity mismatch")
		}
	}()
	New(SchemaOfRunes("AB")).MustInsert(Ints(1))
}

func TestClone(t *testing.T) {
	r := New(SchemaOfRunes("A"))
	r.MustInsert(Ints(1))
	c := r.Clone()
	c.MustInsert(Ints(2))
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone aliases original: %d, %d", r.Len(), c.Len())
	}
}

func TestRelationEqualModuloColumnOrder(t *testing.T) {
	a := New(SchemaOfRunes("AB"))
	a.MustInsert(Ints(1, 2))
	b := New(SchemaOfRunes("BA"))
	b.MustInsert(Ints(2, 1))
	if !a.Equal(b) {
		t.Error("relations equal up to column order reported unequal")
	}
	b.MustInsert(Ints(5, 5))
	if a.Equal(b) {
		t.Error("different cardinalities reported equal")
	}
	c := New(SchemaOfRunes("AC"))
	c.MustInsert(Ints(1, 2))
	if a.Equal(c) {
		t.Error("different attribute sets reported equal")
	}
	d := New(SchemaOfRunes("AB"))
	d.MustInsert(Ints(2, 1))
	if a.Equal(d) {
		t.Error("different contents reported equal")
	}
}

func TestSortedRowsDeterministic(t *testing.T) {
	r := New(SchemaOfRunes("A"))
	for _, v := range []int64{3, 1, 2} {
		r.MustInsert(Ints(v))
	}
	got := r.SortedRows()
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Errorf("SortedRows out of order at %d: %v", i, got)
		}
	}
	if slices.EqualFunc(r.Rows(), got, func(a, b Tuple) bool { return a.Compare(b) == 0 }) {
		// Insertion order 3,1,2 differs from sorted 1,2,3 — SortedRows must
		// not have mutated Rows.
		t.Error("SortedRows appears to have sorted in place")
	}
}

func TestRelationStringTruncates(t *testing.T) {
	r := New(SchemaOfRunes("A"))
	for i := int64(0); i < 30; i++ {
		r.MustInsert(Ints(i))
	}
	s := r.String()
	if !strings.Contains(s, "more)") {
		t.Errorf("large relation String not truncated: %q", s)
	}
}
