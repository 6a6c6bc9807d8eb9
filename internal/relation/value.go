// Package relation implements a small in-memory relational engine with set
// semantics: values, tuples, schemas, relations, and the three operators the
// paper's programs use (natural join — a Cartesian product when the schemas
// are disjoint — semijoin, and projection), together with the
// pairwise/global consistency checks used in its examples. The operators
// come twice: as vectorized kernels over dictionary-encoded column blocks
// (colops.go), which execute every query, and on tuple-map relations
// (ops.go), the reference the kernels are checked against.
//
// Relations are sets of tuples: insertion and projection deduplicate, so the
// cardinalities that feed the paper's cost model (§2.3) are always set sizes.
package relation

import (
	"fmt"
	"strconv"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer value.
	KindInt Kind = iota
	// KindString is a string value.
	KindString
)

// Value is a single attribute value: either an integer or a string.
// The zero Value is the integer 0.
//
// Value is a compact struct rather than an interface so that tuples are
// contiguous and hashing/encoding avoids per-value allocation.
type Value struct {
	s    string
	i    int64
	kind Kind
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{i: v, kind: KindInt} }

// String returns a string Value.
func String(s string) Value { return Value{s: s, kind: KindString} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload; it is meaningful only when Kind is KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsString returns the string payload; it is meaningful only when Kind is KindString.
func (v Value) AsString() string { return v.s }

// Equal reports whether v and w are the same value (same kind and payload).
func (v Value) Equal(w Value) bool {
	return v.kind == w.kind && v.i == w.i && v.s == w.s
}

// Compare orders values: all integers before all strings, then by payload.
// It returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	default:
		switch {
		case v.s < w.s:
			return -1
		case v.s > w.s:
			return 1
		}
		return 0
	}
}

// GoString implements fmt.GoStringer.
func (v Value) GoString() string {
	if v.kind == KindInt {
		return fmt.Sprintf("relation.Int(%d)", v.i)
	}
	return fmt.Sprintf("relation.String(%q)", v.s)
}

// String renders the value for display.
func (v Value) String() string {
	if v.kind == KindInt {
		return strconv.FormatInt(v.i, 10)
	}
	return v.s
}

// appendKey appends a self-delimiting encoding of v to dst. The encoding is
// injective: distinct values produce distinct byte sequences, and sequences of
// values encode injectively when concatenated (each value is length-prefixed).
func (v Value) appendKey(dst []byte) []byte {
	if v.kind == KindInt {
		dst = append(dst, 'i')
		u := uint64(v.i)
		dst = append(dst,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
		return dst
	}
	dst = append(dst, 's')
	n := uint32(len(v.s))
	dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(dst, v.s...)
}
