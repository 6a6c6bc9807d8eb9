package wcoj

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/relation"
)

// FromColumns returns the trie index for rel along order: the relation's
// resident block sorted by code along the order's restriction to the
// relation's attributes (Relation.Block, then ColBlock.SortedBy). It
// charges first — one tuple per index entry against scope (nil charges
// nothing) — and only then fetches the index, building it if this is the
// first query to ask this relation snapshot for this order. So the governor
// sees the same charges whether the index was resident or not, and a budget
// smaller than the relation aborts before any sorting is paid for.
func FromColumns(rel *relation.Relation, order []string, scope *govern.OpScope) (*trieIndex, error) {
	schema := rel.Schema()
	attrs := make([]string, 0, schema.Len())
	for _, v := range order {
		if schema.Has(v) {
			attrs = append(attrs, v)
		}
	}
	if len(attrs) != schema.Len() {
		return nil, fmt.Errorf("wcoj: order %v does not cover schema %s", order, schema)
	}
	for i := rel.Len(); i > 0; i-- {
		if err := scope.Add(1); err != nil {
			return nil, err
		}
	}
	sorted, built, err := rel.Block().SortedBy(attrs)
	if err != nil {
		return nil, err
	}
	return newTrieIndex(sorted, built), nil
}
