package wcoj

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/relation"
)

// FromColumns returns the trie index for rel along order: fromBlock over
// the relation's resident block (Relation.Block).
func FromColumns(rel *relation.Relation, order []string, scope *govern.OpScope) (*trieIndex, error) {
	return fromBlock(rel.Block(), order, scope)
}

// fromBlock returns the trie index for b along order: the block's trie for
// the order's restriction to its attributes (ColBlock.Trie). It charges
// first — one tuple per index entry against scope (nil charges nothing) —
// and only then fetches the trie, building it if this is the first query to
// ask the block for this order. So the governor sees the same charges
// whether the index was resident or not, and a budget smaller than the
// block aborts before any building is paid for.
func fromBlock(b *relation.ColBlock, order []string, scope *govern.OpScope) (*trieIndex, error) {
	schema := b.Schema()
	attrs := make([]string, 0, schema.Len())
	for _, v := range order {
		if schema.Has(v) {
			attrs = append(attrs, v)
		}
	}
	if len(attrs) != schema.Len() {
		return nil, fmt.Errorf("wcoj: order %v does not cover schema %s", order, schema)
	}
	m := scope.Meter()
	if err := m.AddEach(b.Len()); err != nil {
		return nil, err
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	trie, built, err := b.Trie(attrs)
	if err != nil {
		return nil, err
	}
	return newTrieIndex(trie, built), nil
}
