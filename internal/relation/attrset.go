package relation

import (
	"sort"
	"strings"
)

// AttrSet is a set of attribute names, stored sorted and without duplicates.
// The zero value is the empty set. AttrSet values are immutable by
// convention: all operations return new sets and never modify receivers.
type AttrSet []string

// NewAttrSet builds an AttrSet from the given names, sorting and
// deduplicating them.
func NewAttrSet(attrs ...string) AttrSet {
	if len(attrs) == 0 {
		return nil
	}
	out := make(AttrSet, len(attrs))
	copy(out, attrs)
	sort.Strings(out)
	// Deduplicate in place.
	w := 0
	for i, a := range out {
		if i == 0 || a != out[w-1] {
			out[w] = a
			w++
		}
	}
	return out[:w]
}

// AttrSetOfRunes builds an AttrSet treating each rune of s as one
// single-character attribute name; "ABC" becomes {A, B, C}. This matches the
// paper's notation for relation schemes.
func AttrSetOfRunes(s string) AttrSet {
	attrs := make([]string, 0, len(s))
	for _, r := range s {
		attrs = append(attrs, string(r))
	}
	return NewAttrSet(attrs...)
}

// Len returns the number of attributes in the set.
func (s AttrSet) Len() int { return len(s) }

// IsEmpty reports whether the set has no attributes.
func (s AttrSet) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether attr is in the set.
func (s AttrSet) Contains(attr string) bool {
	i := sort.SearchStrings(s, attr)
	return i < len(s) && s[i] == attr
}

// ContainsAll reports whether every attribute of t is in s (t ⊆ s).
func (s AttrSet) ContainsAll(t AttrSet) bool {
	i := 0
	for _, a := range t {
		for i < len(s) && s[i] < a {
			i++
		}
		if i >= len(s) || s[i] != a {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether s and t share at least one attribute. Two join
// operands form a Cartesian product exactly when their schemes do not
// overlap.
func (s AttrSet) Overlaps(t AttrSet) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet {
	if len(s) == 0 {
		return t
	}
	if len(t) == 0 {
		return s
	}
	out := make(AttrSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet {
	var out AttrSet
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// String renders the set in the paper's compact style: single-character
// attributes concatenate ("ABC"); otherwise names join with commas inside
// braces ("{city,year}").
func (s AttrSet) String() string {
	if len(s) == 0 {
		return "{}"
	}
	compact := true
	for _, a := range s {
		if len(a) != 1 {
			compact = false
			break
		}
	}
	if compact {
		return strings.Join(s, "")
	}
	return "{" + strings.Join(s, ",") + "}"
}
