package relation

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewAttrSetSortsAndDedupes(t *testing.T) {
	s := NewAttrSet("C", "A", "B", "A", "C")
	if !s.Equal(AttrSet{"A", "B", "C"}) {
		t.Errorf("NewAttrSet = %v", s)
	}
	if NewAttrSet().Len() != 0 {
		t.Error("empty NewAttrSet not empty")
	}
}

func TestAttrSetOfRunes(t *testing.T) {
	if got := AttrSetOfRunes("GHA"); !got.Equal(AttrSet{"A", "G", "H"}) {
		t.Errorf("AttrSetOfRunes(GHA) = %v", got)
	}
}

func TestAttrSetContains(t *testing.T) {
	s := NewAttrSet("A", "C")
	if !s.Contains("A") || !s.Contains("C") || s.Contains("B") {
		t.Errorf("Contains wrong on %v", s)
	}
	if !s.ContainsAll(NewAttrSet("A")) || s.ContainsAll(NewAttrSet("A", "B")) {
		t.Error("ContainsAll wrong")
	}
	if !s.ContainsAll(nil) {
		t.Error("every set contains the empty set")
	}
}

func TestAttrSetOps(t *testing.T) {
	a := NewAttrSet("A", "B", "C")
	b := NewAttrSet("B", "C", "D")
	if got := a.Union(b); !got.Equal(NewAttrSet("A", "B", "C", "D")) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewAttrSet("B", "C")) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps false for overlapping sets")
	}
	if NewAttrSet("A").Overlaps(NewAttrSet("B")) {
		t.Error("Overlaps true for disjoint sets")
	}
	if a.Overlaps(nil) || AttrSet(nil).Overlaps(a) {
		t.Error("empty set overlaps nothing")
	}
}

func TestAttrSetImmutability(t *testing.T) {
	a := NewAttrSet("A", "B")
	b := NewAttrSet("C")
	_ = a.Union(b)
	_ = a.Intersect(b)
	if !a.Equal(NewAttrSet("A", "B")) || !b.Equal(NewAttrSet("C")) {
		t.Error("set operations modified their receivers")
	}
}

func TestAttrSetString(t *testing.T) {
	if got := NewAttrSet("B", "A").String(); got != "AB" {
		t.Errorf("single-char set String = %q, want AB", got)
	}
	if got := NewAttrSet("city", "year").String(); got != "{city,year}" {
		t.Errorf("multi-char set String = %q", got)
	}
	if got := AttrSet(nil).String(); got != "{}" {
		t.Errorf("empty set String = %q", got)
	}
}

// randomAttrSet draws a set from a small alphabet so overlaps are common.
func randomAttrSet(rng *rand.Rand) AttrSet {
	n := rng.Intn(6)
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = string(rune('A' + rng.Intn(8)))
	}
	return NewAttrSet(attrs...)
}

// TestAttrSetAlgebraProperties property-tests the set-algebra laws the rest
// of the system leans on.
func TestAttrSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b, c := randomAttrSet(rng), randomAttrSet(rng), randomAttrSet(rng)
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatalf("union not commutative: %v %v", a, b)
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			t.Fatalf("intersect not commutative: %v %v", a, b)
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			t.Fatalf("union not associative: %v %v %v", a, b, c)
		}
		// Distribution: a ∩ (b ∪ c) = (a ∩ b) ∪ (a ∩ c).
		if !a.Intersect(b.Union(c)).Equal(a.Intersect(b).Union(a.Intersect(c))) {
			t.Fatalf("intersection does not distribute: %v %v %v", a, b, c)
		}
		// Overlaps agrees with intersection emptiness.
		if a.Overlaps(b) != !a.Intersect(b).IsEmpty() {
			t.Fatalf("Overlaps inconsistent with Intersect: %v %v", a, b)
		}
		// The result is always sorted and duplicate-free.
		for _, s := range []AttrSet{a.Union(b), a.Intersect(b)} {
			if !sort.StringsAreSorted(s) {
				t.Fatalf("unsorted result %v", s)
			}
			for k := 1; k < len(s); k++ {
				if s[k] == s[k-1] {
					t.Fatalf("duplicate in result %v", s)
				}
			}
		}
	}
}

// TestAttrSetQuickCanonical: NewAttrSet is canonical — building from any
// permutation with duplicates yields the identical representation.
func TestAttrSetQuickCanonical(t *testing.T) {
	f := func(raw []uint8) bool {
		attrs := make([]string, len(raw))
		for i, r := range raw {
			attrs[i] = string(rune('A' + int(r)%10))
		}
		a := NewAttrSet(attrs...)
		// Shuffle and duplicate.
		doubled := append(append([]string{}, attrs...), attrs...)
		b := NewAttrSet(doubled...)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
