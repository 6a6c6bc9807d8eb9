package wcoj

import (
	"slices"

	"repro/internal/relation"
)

// trieIndex is one query's view of a relation indexed for a variable order:
// the trie resident on the relation's block for the order restricted to the
// relation's attributes (relation.ColBlock.Trie), plus the query's alignment
// of each level's codes. The trie is shared by every query over the same
// relation snapshot; the trieIndex is not.
//
// Dictionaries are per block, so the codes of one attribute differ between
// relations. align (filled per query by alignTries) maps each level's local
// codes onto the query's merged code space for that variable; it is
// strictly increasing, so comparing aligned codes is comparing values.
type trieIndex struct {
	// trie's schema is the relation's schema in variable-order position, so
	// the level-d key is attribute trie.Schema().Attr(d).
	trie *relation.Trie
	// built reports that this query built (and possibly encoded) the trie
	// rather than finding it resident on the relation.
	built bool
	// align[d][c] is the aligned code of level d's local code c.
	align [][]uint32
}

// newTrieIndex wraps a trie for one query.
func newTrieIndex(trie *relation.Trie, built bool) *trieIndex {
	return &trieIndex{trie: trie, built: built, align: make([][]uint32, trie.Schema().Len())}
}

// levelAlign is one trie level's alignment, memoized in the level's slot
// (relation.Trie.Slot): the dictionaries of every level a query keyed by
// the same variable, in operand order, the domain merged from them, and the
// level's table into that domain. It is a pure function of those
// dictionaries, so a later query over the same ones reuses it.
type levelAlign struct {
	from  []dictID
	dom   []relation.Value
	table []uint32
}

// dictID identifies a dictionary by its first element and length.
// Dictionaries are immutable once published, so two slices with the same
// identity hold the same values.
type dictID struct {
	first *relation.Value
	n     int
}

func idOf(dict []relation.Value) dictID {
	if len(dict) == 0 {
		return dictID{}
	}
	return dictID{&dict[0], len(dict)}
}

// alignTries gives the tries of one query a common code space per variable:
// for each variable the (sorted) dictionaries of the levels keyed by it are
// merged into the variable's domain — the returned doms[v], the sorted value
// list an aligned code indexes — and each such level gets its table of the
// positions of its dictionary entries in that domain. Both are memoized in
// the level's slot, keyed by the identities of the merged dictionaries, so
// a query over the operands of an earlier one merges nothing. When any
// level's slot was left by another operand set, the variable is merged
// again and every slot of it replaced, never added to; that work is
// O(distinct values) per level and charged nothing.
func alignTries(order []string, tries []*trieIndex) (doms [][]relation.Value) {
	doms = make([][]relation.Value, len(order))
	type level struct {
		t    *trieIndex
		d    int
		memo *levelAlign
	}
	var levels []level
	var from []dictID
	for v, name := range order {
		levels, from = levels[:0], from[:0]
		for _, t := range tries {
			if d, ok := t.trie.Schema().Position(name); ok {
				memo, _ := t.trie.Slot(d).Load().(*levelAlign)
				levels = append(levels, level{t, d, memo})
				from = append(from, idOf(t.trie.Dict(d)))
			}
		}
		hit := true
		for _, l := range levels {
			hit = hit && l.memo != nil && slices.Equal(l.memo.from, from)
		}
		if !hit {
			merged := levels[0].t.trie.Dict(levels[0].d)
			for _, l := range levels[1:] {
				merged = unionSorted(merged, l.t.trie.Dict(l.d))
			}
			key := slices.Clone(from)
			for i, l := range levels {
				levels[i].memo = &levelAlign{from: key, dom: merged, table: alignTable(l.t.trie.Dict(l.d), merged)}
				l.t.trie.Slot(l.d).Store(levels[i].memo)
			}
		}
		doms[v] = levels[0].memo.dom
		for _, l := range levels {
			l.t.align[l.d] = l.memo.table
		}
	}
	return doms
}

// alignTable returns the position in merged of each entry of dict, a
// sorted subset of it.
func alignTable(dict, merged []relation.Value) []uint32 {
	table := make([]uint32, len(dict))
	m := 0
	for c, val := range dict {
		for !merged[m].Equal(val) {
			m++
		}
		table[c] = uint32(m)
	}
	return table
}

// unionSorted merges two strictly ascending value lists into one.
func unionSorted(a, b []relation.Value) []relation.Value {
	out := make([]relation.Value, 0, max(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// trieIter is the classical Leapfrog-Triejoin trie iterator over a
// trieIndex: open descends one level, up ascends, and within a level next
// and seek step through the node keys under the current parent — the
// level's distinct keys for the prefix above. State per level is the
// current node pos and the end hi of the parent's child range; open reads
// two offsets and next is one increment. cur caches the aligned key of the
// current node (align[depth][keys[depth][pos]]) whenever the level is not
// atEnd.
type trieIter struct {
	keys  [][]uint32 // the trie's node keys, by level
	start [][]uint32 // the trie's child offsets, by level
	align [][]uint32 // the query's alignment tables, by level
	depth int        // -1 = root (no level open)
	cur   uint32
	pos   []int
	hi    []int
}

// newTrieIter returns an iterator positioned at the root.
func newTrieIter(t *trieIndex) *trieIter {
	n := t.trie.Schema().Len()
	it := &trieIter{
		keys:  make([][]uint32, n),
		start: make([][]uint32, n),
		align: t.align,
		depth: -1,
		pos:   make([]int, n),
		hi:    make([]int, n),
	}
	for d := range it.keys {
		it.keys[d] = t.trie.Keys(d)
		if d < n-1 {
			it.start[d] = t.trie.Start(d)
		}
	}
	return it
}

// atEnd reports whether the iterator has exhausted the current level.
func (it *trieIter) atEnd() bool {
	return it.pos[it.depth] >= it.hi[it.depth]
}

// key returns the current aligned code at the open level; the iterator must
// not be atEnd.
func (it *trieIter) key() uint32 { return it.cur }

// load caches the aligned key at level d's position, if any.
func (it *trieIter) load(d int) {
	if p := it.pos[d]; p < it.hi[d] {
		it.cur = it.align[d][it.keys[d][p]]
	}
}

// open descends to the first key of the next level: from the root, to the
// first node of level 0; from an open level (not atEnd), to the first child
// of the current node.
func (it *trieIter) open() {
	d := it.depth + 1
	if d == 0 {
		it.pos[0], it.hi[0] = 0, len(it.keys[0])
	} else {
		p := it.pos[d-1]
		it.pos[d], it.hi[d] = int(it.start[d-1][p]), int(it.start[d-1][p+1])
	}
	it.depth = d
	it.load(d)
}

// up ascends one level, restoring the parent's position.
func (it *trieIter) up() {
	it.depth--
	if it.depth >= 0 {
		it.load(it.depth)
	}
}

// next advances to the level's next key.
func (it *trieIter) next() {
	d := it.depth
	it.pos[d]++
	it.load(d)
}

// seek advances to the first key ≥ the aligned code a, or atEnd when none
// remains; a code this relation's dictionary lacks lands on the next larger
// one it has. Seeks only move forward (the LFTJ contract: the sought key is
// ≥ the current key). It gallops — doubling steps from the current
// position, then binary search within the bracket — so a seek costs
// O(log distance) rather than O(log |level|), which is what makes
// leapfrogging skew-resistant.
func (it *trieIter) seek(a uint32) {
	d := it.depth
	keys, align, hi := it.keys[d], it.align[d], it.hi[d]
	lo := it.pos[d]
	if lo >= hi || it.cur >= a {
		return
	}
	// Gallop: find the smallest bracket [lo+step/2, lo+step] containing the
	// target, capped at hi.
	step := 1
	for lo+step < hi && align[keys[lo+step]] < a {
		lo += step
		step <<= 1
	}
	end := min(lo+step, hi)
	// Binary search (lo, end] for the first key ≥ a; nodes up to lo are < a.
	lo++
	for lo < end {
		if mid := int(uint(lo+end) >> 1); align[keys[mid]] < a {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	it.pos[d] = lo
	if lo < hi {
		it.cur = align[keys[lo]]
	}
}
