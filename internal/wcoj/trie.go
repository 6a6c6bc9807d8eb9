package wcoj

import "repro/internal/relation"

// trieIndex is one relation indexed for a variable order: the relation's
// resident columnar block with its columns permuted into the global order
// restricted to the relation's attributes and its rows sorted
// lexicographically by dictionary code (relation.ColBlock.SortedBy). The
// sorted block *is* the trie — level d of the trie is the d-th code column,
// and a node is a run of rows sharing a prefix — so nothing is decoded to
// build it, and iterators are just index ranges over shared columns.
//
// Dictionaries are per block, so the codes of one attribute differ between
// relations. align (filled per query by alignTries) maps each level's local
// codes onto the query's merged code space for that variable; it is
// strictly increasing, so comparing aligned codes is comparing values.
type trieIndex struct {
	// block is the sorted block; its schema is the relation's schema in
	// variable-order position, so the level-d key is attribute
	// block.Schema().Attr(d).
	block *relation.ColBlock
	// built reports that this query sorted (and possibly encoded) the block
	// rather than finding it resident on the relation.
	built bool
	// cols[d] is the level-d code column of block.
	cols [][]uint32
	// align[d][c] is the aligned code of level d's local code c.
	align [][]uint32
}

// newTrieIndex wraps a sorted block.
func newTrieIndex(sorted *relation.ColBlock, built bool) *trieIndex {
	n := sorted.Schema().Len()
	t := &trieIndex{block: sorted, built: built, cols: make([][]uint32, n), align: make([][]uint32, n)}
	for d := range t.cols {
		t.cols[d] = sorted.Codes(d)
	}
	return t
}

// entries returns the number of index entries: one per tuple.
func (t *trieIndex) entries() int { return t.block.Len() }

// alignTries gives the tries of one query a common code space per variable:
// for each variable it merges the (sorted) dictionaries of the levels keyed
// by it into the variable's domain — the returned doms[v], the sorted value
// list an aligned code indexes — and fills each such level's align table
// with the positions of its dictionary entries in that domain. The work is
// O(distinct values) per level and charged nothing.
func alignTries(order []string, tries []*trieIndex) (doms [][]relation.Value) {
	doms = make([][]relation.Value, len(order))
	type level struct {
		t *trieIndex
		d int
	}
	for v, name := range order {
		var levels []level
		var merged []relation.Value
		for _, t := range tries {
			d, ok := t.block.Schema().Position(name)
			if !ok {
				continue
			}
			levels = append(levels, level{t, d})
			if merged == nil {
				merged = t.block.Dict(d)
			} else {
				merged = unionSorted(merged, t.block.Dict(d))
			}
		}
		doms[v] = merged
		for _, l := range levels {
			dict := l.t.block.Dict(l.d)
			table := make([]uint32, len(dict))
			m := 0
			for c, val := range dict {
				for !merged[m].Equal(val) {
					m++
				}
				table[c] = uint32(m)
			}
			l.t.align[l.d] = table
		}
	}
	return doms
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
// and seek step through the *distinct* keys of that level's column under
// the current prefix. State per level is a row range [lo, hi) (the rows
// matching the prefix above) and pos, the first row of the current key
// group. Keys are aligned codes: key() is align[depth][cols[depth][pos]].
type trieIter struct {
	cols  [][]uint32 // the index's code columns, by level
	align [][]uint32 // the index's alignment tables, by level
	depth int        // -1 = root (no level open)
	lo    []int
	hi    []int
	pos   []int
}

// newTrieIter returns an iterator positioned at the root.
func newTrieIter(t *trieIndex) *trieIter {
	n := len(t.cols)
	return &trieIter{
		cols:  t.cols,
		align: t.align,
		depth: -1,
		lo:    make([]int, n),
		hi:    make([]int, n),
		pos:   make([]int, n),
	}
}

// atEnd reports whether the iterator has exhausted the current level.
func (it *trieIter) atEnd() bool {
	return it.pos[it.depth] >= it.hi[it.depth]
}

// key returns the current aligned code at the open level; the iterator must
// not be atEnd.
func (it *trieIter) key() uint32 {
	d := it.depth
	return it.align[d][it.cols[d][it.pos[d]]]
}

// open descends to the first key of the next level: from the root, to the
// first key of column 0; from an open level (not atEnd), into the rows of
// the current key group.
func (it *trieIter) open() {
	if it.depth < 0 {
		it.depth = 0
		it.lo[0], it.hi[0], it.pos[0] = 0, len(it.cols[0]), 0
		return
	}
	d := it.depth
	lo, hi := it.pos[d], it.groupEnd(d)
	it.depth = d + 1
	it.lo[it.depth], it.hi[it.depth], it.pos[it.depth] = lo, hi, lo
}

// up ascends one level, restoring the parent's position.
func (it *trieIter) up() { it.depth-- }

// next advances to the level's next distinct key.
func (it *trieIter) next() {
	it.pos[it.depth] = it.groupEnd(it.depth)
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
	codes, align, hi := it.cols[d], it.align[d], it.hi[d]
	lo := it.pos[d]
	if lo >= hi || align[codes[lo]] >= a {
		return
	}
	// Gallop: find the smallest bracket [lo+step/2, lo+step] containing the
	// target, capped at hi.
	step := 1
	for lo+step < hi && align[codes[lo+step]] < a {
		lo += step
		step <<= 1
	}
	end := min(lo+step, hi)
	// Binary search (lo, end] for the first key ≥ a; rows up to lo are < a.
	lo++
	for lo < end {
		if mid := int(uint(lo+end) >> 1); align[codes[mid]] < a {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	it.pos[d] = lo
}

// groupEnd returns the first row index after the current key group at
// level d: the rows [pos, groupEnd) all share cols[d][pos].
func (it *trieIter) groupEnd(d int) int {
	codes := it.cols[d]
	lo, hi := it.pos[d], it.hi[d]
	c := codes[lo]
	// The same gallop as seek: key groups are often short.
	step := 1
	for lo+step < hi && codes[lo+step] == c {
		lo += step
		step <<= 1
	}
	end := min(lo+step, hi)
	lo++
	for lo < end {
		if mid := int(uint(lo+end) >> 1); codes[mid] == c {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	return lo
}
