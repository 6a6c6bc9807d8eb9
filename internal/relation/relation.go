package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Tuple is a row of values laid out according to some Schema's column order.
type Tuple []Value

// Ints builds a tuple of integer values; convenient for generators and tests.
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = Int(v)
	}
	return t
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// key returns the injective byte encoding of the whole tuple.
func (t Tuple) key() string {
	var buf []byte
	for _, v := range t {
		buf = v.appendKey(buf)
	}
	return string(buf)
}

// keyAt returns the injective byte encoding of the tuple restricted to the
// given column positions, in the order given.
func (t Tuple) keyAt(pos []int) string {
	var buf []byte
	for _, p := range pos {
		buf = t[p].appendKey(buf)
	}
	return string(buf)
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a set of tuples over a Schema. The zero value is not usable;
// construct with New. Tuples are deduplicated on insertion, so Len is always
// a set cardinality — the quantity the paper's cost model counts.
//
// The dedup index is built lazily: relations constructed from rows already
// known to be distinct (NewFromDistinctRows, partition merges) pay for it
// only if Insert, Contains, or an Equal receiver actually needs it. The
// columnar encoding (Block) is a second memo, published the same way. A
// relation made by ColBlock.ToRelation is block-backed: it holds that block
// and no rows, and its rows are a third memo, decoded on first read.
type Relation struct {
	schema *Schema
	rows   []Tuple
	// src is the block a block-backed relation's rows are decoded from
	// (nil for a row-backed one). Only ToRelation sets it; Insert moves the
	// decoded rows into rows and clears it, and UnmarshalJSON clears it.
	src     *ColBlock
	decoded atomic.Pointer[[]Tuple]
	seen    atomic.Pointer[seenSet]
	block   atomic.Pointer[ColBlock]
}

// seenSet is the dedup index: the key-encoded tuples currently in rows.
type seenSet = map[string]struct{}

// New returns an empty relation over the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// NewFromDistinctRows returns a relation over schema that takes ownership
// of rows without re-deduplicating them — the caller asserts the rows are
// pairwise distinct (e.g. a merge of hash-partitioned outputs, disjoint by
// construction). Arity is still checked. The dedup index is built lazily on
// first use; passing duplicate rows violates the set invariant silently.
func NewFromDistinctRows(schema *Schema, rows []Tuple) (*Relation, error) {
	for _, row := range rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("relation: tuple arity %d does not match schema %s (arity %d)",
				len(row), schema, schema.Len())
		}
	}
	return &Relation{schema: schema, rows: rows}, nil
}

// index returns the key set over the current rows, building it on first
// use. Concurrent readers (Contains, Equal) may race to build it; the
// compare-and-swap makes that safe (both build the same set, one wins).
// Mutation via Insert was never safe to run concurrently with readers and
// still is not.
func (r *Relation) index() seenSet {
	if p := r.seen.Load(); p != nil {
		return *p
	}
	rows := r.tuples()
	m := make(seenSet, len(rows))
	for _, t := range rows {
		m[t.key()] = struct{}{}
	}
	r.seen.CompareAndSwap(nil, &m)
	return *r.seen.Load()
}

// tuples returns the relation's rows; every reader of them goes through it
// (rows itself is read directly only where src is known to be nil). A
// block-backed relation decodes src on first use and publishes the rows the
// way index publishes its set: concurrent first readers may race to decode,
// and every caller gets the one slice that won.
func (r *Relation) tuples() []Tuple {
	if r.src == nil {
		return r.rows
	}
	if p := r.decoded.Load(); p != nil {
		return *p
	}
	rows := r.src.decode()
	r.decoded.CompareAndSwap(nil, &rows)
	return *r.decoded.Load()
}

// Block returns the relation's columnar encoding — the block a ToRelation
// made it from, or else FromRelation(r), built on first use and kept on
// the relation, so every later reader of the same snapshot shares one
// encoding (and the tries memoized on it). Like
// index, concurrent first readers may race to build it and one build wins;
// Insert and UnmarshalJSON, the only ways a relation's rows change in place,
// drop it. A relation that is never mutated after it is shared — every
// relation a catalog snapshot holds — therefore never serves a stale block.
func (r *Relation) Block() *ColBlock {
	if b := r.block.Load(); b != nil {
		return b
	}
	r.block.CompareAndSwap(nil, FromRelation(r))
	return r.block.Load()
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of (distinct) tuples — |R| in the paper's notation.
func (r *Relation) Len() int {
	if r.src != nil {
		return r.src.n
	}
	return len(r.rows)
}

// IsEmpty reports whether the relation has no tuples.
func (r *Relation) IsEmpty() bool { return r.Len() == 0 }

// Rows returns the underlying tuples, decoding a block-backed relation's
// block on first use. Callers must not modify the returned slice or its
// tuples.
func (r *Relation) Rows() []Tuple { return r.tuples() }

// Insert adds a tuple, ignoring duplicates. It returns an error if the
// tuple's arity does not match the schema.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s (arity %d)",
			len(t), r.schema, r.schema.Len())
	}
	if r.src != nil { // become row-backed: the new row joins the decoded ones
		r.rows, r.src = r.tuples(), nil
	}
	k := t.key()
	idx := r.index()
	if _, dup := idx[k]; dup {
		return nil
	}
	idx[k] = struct{}{}
	r.rows = append(r.rows, t)
	// Drop the encoding of the old rows. Bulk loads insert into relations
	// that have none, so test first: a load is cheaper than the store.
	if r.block.Load() != nil {
		r.block.Store(nil)
	}
	return nil
}

// MustInsert is Insert that panics on arity mismatch; for generators whose
// arity is correct by construction.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Contains reports whether the relation holds the given tuple.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.schema.Len() {
		return false
	}
	_, ok := r.index()[t.key()]
	return ok
}

// Clone returns a deep-enough copy: the row slice is copied; tuples are
// shared (they are treated as immutable). The clone is row-backed even when
// r is block-backed: its dedup index and columnar encoding are rebuilt
// lazily if needed.
func (r *Relation) Clone() *Relation {
	return &Relation{
		schema: r.schema,
		rows:   append([]Tuple(nil), r.tuples()...),
	}
}

// Equal reports whether r and s are the same set of tuples over set-equal
// schemas (column order may differ; values are compared by attribute name).
func (r *Relation) Equal(s *Relation) bool {
	if !r.schema.AttrSet().Equal(s.schema.AttrSet()) {
		return false
	}
	if r.Len() != s.Len() {
		return false
	}
	// Reorder s's columns to r's order, then test membership.
	pos, err := s.schema.Positions(r.schema.Attrs())
	if err != nil {
		return false
	}
	for _, row := range s.tuples() {
		re := make(Tuple, len(pos))
		for i, p := range pos {
			re[i] = row[p]
		}
		if !r.Contains(re) {
			return false
		}
	}
	return true
}

// SortedRows returns the tuples in lexicographic order; for deterministic
// output in tests, goldens, and printing.
func (r *Relation) SortedRows() []Tuple {
	out := append([]Tuple(nil), r.tuples()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// String renders the relation as a small table; intended for debugging and
// examples, not for large relations.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d tuples]", r.schema, r.Len())
	const maxShown = 20
	rows := r.SortedRows()
	for i, t := range rows {
		if i == maxShown {
			fmt.Fprintf(&b, "\n  ... (%d more)", len(rows)-maxShown)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(t.String())
	}
	return b.String()
}
