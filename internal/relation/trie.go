package relation

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Trie is a block indexed for one attribute order as a trie in CSR form:
// level d holds the distinct length-(d+1) prefixes of the rows projected
// onto that order, sorted, and every level but the last points each of its
// nodes at the contiguous range of its children one level down. Keys are
// the block's dictionary codes, so key order within a node is value order.
//
// Keys(d) lists level d's nodes by their last code: the children of node i
// at level d are Keys(d+1)[Start(d)[i]:Start(d)[i+1]], strictly ascending.
// Level 0 is one node list under the root, and the last level has one leaf
// per row. A trie iterator therefore opens a node by reading two offsets
// and steps to the next distinct key by one increment.
//
// A Trie is immutable and shares its dictionaries with the block it was
// built from. Each level also has one memo slot (Slot) for state a consumer
// derives from the trie together with other immutable inputs.
type Trie struct {
	schema *Schema
	dicts  [][]Value
	keys   [][]uint32
	start  [][]uint32
	slots  []atomic.Value
}

// Schema returns the trie's attributes in level order.
func (t *Trie) Schema() *Schema { return t.schema }

// Dict returns the dictionary of level d's codes — the block's dictionary
// for that attribute, shared.
func (t *Trie) Dict(d int) []Value { return t.dicts[d] }

// Keys returns level d's node keys; see Trie.
func (t *Trie) Keys(d int) []uint32 { return t.keys[d] }

// Start returns level d's child offsets into level d+1: len(Keys(d))+1
// ascending offsets from 0 to len(Keys(d+1)). The last level has none.
func (t *Trie) Start(d int) []uint32 { return t.start[d] }

// Slot returns level d's memo slot. A consumer may keep in it one value
// derived from the trie and other immutable inputs, replacing it when the
// inputs differ; every value stored in a slot must have the same type. The
// slot bounds that memo to one value per level and is safe for concurrent
// use.
func (t *Trie) Slot(d int) *atomic.Value { return &t.slots[d] }

// Trie returns the block's trie for attrs, a permutation of the schema's
// attributes. The trie is built on the first call for a given attrs and
// kept on the block, so later calls (from any goroutine) return the same
// *Trie; built reports whether this call built it.
func (b *ColBlock) Trie(attrs []string) (trie *Trie, built bool, err error) {
	head := b.tries.Load()
	if run := head.find(attrs); run != nil {
		return run.trie, false, nil
	}
	if len(attrs) != b.schema.Len() {
		return nil, false, fmt.Errorf("colblock: trie order %v is not a permutation of schema %s", attrs, b.schema)
	}
	pos, err := b.schema.Positions(attrs)
	if err != nil {
		return nil, false, err
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, false, err
	}
	run := &trieRun{attrs: schema.attrs, trie: b.buildTrie(schema, pos), next: head}
	for !b.tries.CompareAndSwap(run.next, run) {
		// Lost a race: keep the winner's trie if it is for the same order,
		// so only one trie per order is ever retained.
		run.next = b.tries.Load()
		if won := run.next.find(attrs); won != nil {
			return won.trie, true, nil
		}
	}
	return run.trie, true, nil
}

// trieRun is one entry of a block's memo of tries, one per attribute order
// asked of it. The memo is an immutable list pushed at the head; a relation
// belongs to one scheme, so in practice it holds one entry.
type trieRun struct {
	attrs []string
	trie  *Trie
	next  *trieRun
}

// find returns the list entry for attrs, or nil.
func (run *trieRun) find(attrs []string) *trieRun {
	for ; run != nil; run = run.next {
		if slices.Equal(run.attrs, attrs) {
			return run
		}
	}
	return nil
}

// buildTrie builds the trie behind Trie in one pass over rowOrder(pos):
// each row opens a new node at the first level where its codes differ from
// the previous row's and at every level below it. A row equal to the
// previous one opens nothing, so the leaves are the distinct rows.
func (b *ColBlock) buildTrie(schema *Schema, pos []int) *Trie {
	k := len(pos)
	t := &Trie{
		schema: schema,
		dicts:  make([][]Value, k),
		keys:   make([][]uint32, k),
		start:  make([][]uint32, max(k-1, 0)),
		slots:  make([]atomic.Value, k),
	}
	if k == 0 {
		return t
	}
	cols, src := make([][]uint32, k), b.cols()
	for d, c := range pos {
		t.dicts[d] = src[c].dict
		cols[d] = src[c].codes
	}
	t.keys[k-1] = make([]uint32, 0, b.n)
	prev := int32(-1)
	for _, row := range b.rowOrder(pos) {
		d := 0
		if prev >= 0 {
			for d < k && cols[d][row] == cols[d][prev] {
				d++
			}
		}
		prev = row
		for ; d < k; d++ {
			if d < k-1 {
				t.start[d] = append(t.start[d], uint32(len(t.keys[d+1])))
			}
			t.keys[d] = append(t.keys[d], cols[d][row])
		}
	}
	for d := range t.start {
		t.start[d] = append(t.start[d], uint32(len(t.keys[d+1])))
	}
	return t
}
