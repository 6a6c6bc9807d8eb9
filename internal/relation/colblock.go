package relation

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// ColBlock is the columnar twin of Relation: the same set of tuples stored
// column-major with per-column dictionary encoding. Each column keeps a
// sorted dictionary of its distinct values and one uint32 code per row, so
// row i of column c decodes as Dict(c)[Codes(c)[i]]. Because every
// dictionary is sorted by Value.Compare, code order within a column is
// value order — the property the wcoj trie builder and the vectorized
// kernels exploit to compare and sort rows on integers instead of Values.
//
// A ColBlock built by FromRelation has minimal dictionaries (every entry is
// referenced); kernel outputs share their inputs' dictionaries by reference
// and may leave entries unreferenced. Both forms satisfy the invariants the
// fuzz target checks: strictly sorted dictionaries, every code in range,
// and all columns the same length. ColBlocks are immutable once built and
// share dictionaries freely, so they must never be mutated in place — which
// is also why the tries Trie memoizes on a block never need invalidating.
//
// A join's output may be a head (colops.go): its probe side's match ids
// over its build side's matchTable, read as pairs by the kernels that only
// key rows. Its columns are memoized like its tries: written once, when a
// reader first needs them, through cols, the one reader of a block's
// columns, so no reader can see a head unwritten.
type ColBlock struct {
	schema *Schema
	data   []column // a plain block's columns; read through cols
	n      int
	head   *head
	tries  atomic.Pointer[trieRun]
}

// cols returns the block's columns, writing a head's on the first call.
func (b *ColBlock) cols() []column {
	if h := b.head; h != nil {
		h.once.Do(func() { h.cols = h.fill() })
		return h.cols
	}
	return b.data
}

// plain returns b, or a block over a head's written columns, for the
// readers that index rows by number.
func (b *ColBlock) plain() *ColBlock {
	if b.head == nil {
		return b
	}
	return &ColBlock{schema: b.schema, data: b.cols(), n: b.n}
}

// column is one dictionary-encoded column: dict is sorted strictly
// ascending by Value.Compare; codes holds one index into dict per row.
type column struct {
	dict  []Value
	codes []uint32
}

// FromRelation encodes r as a ColBlock with minimal per-column
// dictionaries. The block holds the same tuple set in r's row order.
func FromRelation(r *Relation) *ColBlock {
	n := r.Len()
	b := &ColBlock{schema: r.schema, data: make([]column, r.schema.Len()), n: n}
	rows := r.Rows()
	for c := range b.data {
		ids := make(map[Value]uint32, 16)
		var dict []Value
		codes := make([]uint32, n)
		for i, row := range rows {
			v := row[c]
			id, ok := ids[v]
			if !ok {
				id = uint32(len(dict))
				ids[v] = id
				dict = append(dict, v)
			}
			codes[i] = id
		}
		// Sort the dictionary and remap the provisional first-seen codes to
		// ranks, so code order equals value order.
		rank := sortDict(dict)
		if rank != nil {
			for i, code := range codes {
				codes[i] = rank[code]
			}
		}
		b.data[c] = column{dict: dict, codes: codes}
	}
	return b
}

// NewColBlock assembles an n-row block from per-column dictionaries and code
// columns, which it keeps by reference: dicts[c] must be sorted strictly
// ascending and codes[c] must hold n codes into it (Validate checks both).
// The multiway join builds its output this way, on the dictionaries it
// aligned its inputs to, so nothing is re-encoded.
func NewColBlock(schema *Schema, n int, dicts [][]Value, codes [][]uint32) (*ColBlock, error) {
	if len(dicts) != schema.Len() || len(codes) != schema.Len() {
		return nil, fmt.Errorf("colblock: %d dictionaries and %d code columns for schema %s", len(dicts), len(codes), schema)
	}
	b := &ColBlock{schema: schema, data: make([]column, len(dicts)), n: n}
	for c := range b.data {
		if len(codes[c]) != n {
			return nil, fmt.Errorf("colblock: column %d has %d codes, block has %d rows", c, len(codes[c]), n)
		}
		b.data[c] = column{dict: dicts[c], codes: codes[c]}
	}
	return b, nil
}

// sortDict sorts dict ascending in place and returns old-code → new-code,
// or nil when the dictionary was already sorted (the common case for
// generated integer data inserted in order).
func sortDict(dict []Value) []uint32 {
	sorted := true
	for i := 1; i < len(dict); i++ {
		if dict[i-1].Compare(dict[i]) >= 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return nil
	}
	type entry struct {
		v   Value
		old uint32
	}
	entries := make([]entry, len(dict))
	for i, v := range dict {
		entries[i] = entry{v, uint32(i)}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].v.Compare(entries[j].v) < 0 })
	rank := make([]uint32, len(dict))
	for newCode, e := range entries {
		dict[newCode] = e.v
		rank[e.old] = uint32(newCode)
	}
	return rank
}

// rowOrder returns the block's row indexes sorted lexicographically by the
// codes of columns pos: an LSD radix sort — one stable counting pass per key
// column, last column first, with the column's dictionary size as the radix.
func (b *ColBlock) rowOrder(pos []int) []int32 {
	idx := make([]int32, b.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	tmp := make([]int32, b.n)
	cols := b.cols()
	for k := len(pos) - 1; k >= 0; k-- {
		col := &cols[pos[k]]
		start := make([]int32, len(col.dict)+1)
		for _, code := range col.codes {
			start[code+1]++
		}
		for c := 1; c < len(start); c++ {
			start[c] += start[c-1]
		}
		for _, i := range idx {
			code := col.codes[i]
			tmp[start[code]] = i
			start[code]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}

// ToRelation returns the block as a tuple-map Relation over the same schema,
// the inverse of FromRelation up to row order (both sides are sets). The
// relation is block-backed: it holds b as its resident block and no rows, so
// Len, Block() and the JSON encoder read the codes the executor produced,
// and the rows are decoded only if a caller asks for them (Rows, Contains,
// SortedRows, Insert, ...). Blocks hold distinct rows by construction —
// FromRelation starts from a set, joins of sets retaining every column stay
// sets, and projections dedup — so decoding skips the per-tuple dedup probe
// and the relation's index is built lazily if a consumer needs it.
func (b *ColBlock) ToRelation() *Relation {
	r := &Relation{schema: b.schema, src: b}
	r.block.Store(b)
	return r
}

// decode materializes the block's rows. All rows are cut from one value
// slab, each with its capacity clipped to its own length, so an append to a
// decoded tuple reallocates instead of writing into its neighbour.
func (b *ColBlock) decode() []Tuple {
	cols := b.cols()
	nc := len(cols)
	slab := make([]Value, b.n*nc)
	for c := range cols {
		col := &cols[c]
		for i, code := range col.codes {
			slab[i*nc+c] = col.dict[code]
		}
	}
	rows := make([]Tuple, b.n)
	for i := range rows {
		rows[i] = slab[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return rows
}

// Schema returns the block's schema.
func (b *ColBlock) Schema() *Schema { return b.schema }

// Len returns the number of rows.
func (b *ColBlock) Len() int { return b.n }

// Dict returns column c's sorted dictionary. Callers must not modify it —
// dictionaries are shared across blocks. A head's are known unwritten.
func (b *ColBlock) Dict(c int) []Value {
	if h := b.head; h != nil {
		return h.srcs[c].dict
	}
	return b.cols()[c].dict
}

// Value decodes the value at row i, column c.
func (b *ColBlock) Value(i, c int) Value {
	col := &b.cols()[c]
	return col.dict[col.codes[i]]
}

// Validate checks the block's structural invariants: equal column lengths,
// strictly sorted dictionaries, and every code in range. The fuzz target
// and the differential tests call it; kernels assume it.
func (b *ColBlock) Validate() error {
	cols := b.cols()
	if len(cols) != b.schema.Len() {
		return fmt.Errorf("colblock: %d columns for schema %s (arity %d)", len(cols), b.schema, b.schema.Len())
	}
	for c := range cols {
		col := &cols[c]
		if len(col.codes) != b.n {
			return fmt.Errorf("colblock: column %d has %d codes, block has %d rows", c, len(col.codes), b.n)
		}
		for i := 1; i < len(col.dict); i++ {
			if col.dict[i-1].Compare(col.dict[i]) >= 0 {
				return fmt.Errorf("colblock: column %d dictionary not strictly sorted at %d", c, i)
			}
		}
		for i, code := range col.codes {
			if int(code) >= len(col.dict) {
				return fmt.Errorf("colblock: column %d row %d code %d out of range [0,%d)", c, i, code, len(col.dict))
			}
		}
	}
	return nil
}
