// Package hypergraph represents a database scheme as a hypergraph whose
// nodes are attributes and whose hyperedges are relation schemes, and
// provides the connectivity machinery the paper's algorithms need:
// connected components of edge subsets, connectivity tests, and the GYO
// reduction used to recognize acyclic schemes and build join trees.
//
// Edge subsets are bitmasks (Mask), so a scheme may have at most 64 relation
// scheme occurrences — far beyond anything join-order search can enumerate.
package hypergraph

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/relation"
)

// Mask is a subset of hyperedges, one bit per edge index.
type Mask uint64

// MaskOf builds a mask with the given edge indexes set.
func MaskOf(idx ...int) Mask {
	var m Mask
	for _, i := range idx {
		m |= 1 << uint(i)
	}
	return m
}

// FullMask returns the mask with the n lowest bits set.
func FullMask(n int) Mask {
	if n >= 64 {
		return ^Mask(0)
	}
	return (1 << uint(n)) - 1
}

// With returns the mask with edge i added.
func (m Mask) With(i int) Mask { return m | 1<<uint(i) }

// Without returns the mask with edge i removed.
func (m Mask) Without(i int) Mask { return m &^ (1 << uint(i)) }

// Count returns the number of edges in the mask.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// Indexes returns the edge indexes in the mask, ascending.
func (m Mask) Indexes() []int {
	out := make([]int, 0, m.Count())
	for x := m; x != 0; x &= x - 1 {
		out = append(out, bits.TrailingZeros64(uint64(x)))
	}
	return out
}

// String renders the mask as its index list.
func (m Mask) String() string {
	parts := make([]string, 0, m.Count())
	for _, i := range m.Indexes() {
		parts = append(parts, fmt.Sprint(i))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Hypergraph is a database scheme: an indexed multiset of hyperedges, each
// an attribute set. It is immutable after construction.
type Hypergraph struct {
	edges []relation.AttrSet
	attrs relation.AttrSet
	// display holds optional per-edge display names (e.g. "GHA" in the
	// paper's attribute order rather than the sorted "AGH"); empty strings
	// fall back to the sorted attribute-set rendering.
	display []string
	// adjacency[i] is the mask of edges sharing at least one attribute
	// with edge i (excluding i itself unless duplicated).
	adjacency []Mask
}

// New builds a hypergraph from the given edges. It returns an error when
// there are no edges, more than 64 edges, or an empty edge (an empty
// relation scheme cannot participate in connectivity).
func New(edges []relation.AttrSet) (*Hypergraph, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("hypergraph: no edges")
	}
	if len(edges) > 64 {
		return nil, fmt.Errorf("hypergraph: %d edges exceeds the 64-edge limit", len(edges))
	}
	h := &Hypergraph{edges: append([]relation.AttrSet(nil), edges...)}
	for i, e := range h.edges {
		if e.IsEmpty() {
			return nil, fmt.Errorf("hypergraph: edge %d is empty", i)
		}
		h.attrs = h.attrs.Union(e)
	}
	h.adjacency = make([]Mask, len(h.edges))
	for i := range h.edges {
		for j := range h.edges {
			if i != j && h.edges[i].Overlaps(h.edges[j]) {
				h.adjacency[i] |= 1 << uint(j)
			}
		}
	}
	return h, nil
}

// Must is New that panics on error.
func Must(edges []relation.AttrSet) *Hypergraph {
	h, err := New(edges)
	if err != nil {
		panic(err)
	}
	return h
}

// OfScheme builds the hypergraph of a database's scheme. Each edge's
// display name preserves the relation's column order (so a relation built
// over SchemaOfRunes("GHA") prints as GHA, not the sorted AGH).
func OfScheme(db *relation.Database) *Hypergraph {
	h := Must(db.Schemes())
	h.display = make([]string, db.Len())
	for i := 0; i < db.Len(); i++ {
		h.display[i] = db.Relation(i).Schema().String()
	}
	return h
}

// ParseScheme builds a hypergraph from the paper's compact notation: each
// word is a relation scheme of single-character attributes, e.g.
// "ABC CDE EFG GHA". The words are kept as display names, so printed trees
// and programs echo the paper's attribute order ("GHA" rather than "AGH").
func ParseScheme(s string) (*Hypergraph, error) {
	fields := strings.Fields(s)
	edges := make([]relation.AttrSet, len(fields))
	for i, f := range fields {
		edges[i] = relation.AttrSetOfRunes(f)
	}
	h, err := New(edges)
	if err != nil {
		return nil, err
	}
	h.display = append([]string(nil), fields...)
	return h, nil
}

// DisplayName returns the preferred rendering of edge i: the name it was
// declared with when available, otherwise the sorted attribute-set string.
func (h *Hypergraph) DisplayName(i int) string {
	if i < len(h.display) && h.display[i] != "" {
		return h.display[i]
	}
	return h.edges[i].String()
}

// Len returns the number of edges (relation scheme occurrences), r in
// Theorem 2.
func (h *Hypergraph) Len() int { return len(h.edges) }

// Edge returns the attribute set of edge i.
func (h *Hypergraph) Edge(i int) relation.AttrSet { return h.edges[i] }

// Edges returns all edges in index order; callers must not modify the slice.
func (h *Hypergraph) Edges() []relation.AttrSet { return h.edges }

// Attrs returns the set of all attributes, whose size is a in Theorem 2.
func (h *Hypergraph) Attrs() relation.AttrSet { return h.attrs }

// Full returns the mask of all edges.
func (h *Hypergraph) Full() Mask { return FullMask(len(h.edges)) }

// AttrsOf returns the union of the attribute sets of the edges in m —
// ∪𝒱 for a node 𝒱 of a join expression tree.
func (h *Hypergraph) AttrsOf(m Mask) relation.AttrSet {
	var out relation.AttrSet
	for _, i := range m.Indexes() {
		out = out.Union(h.edges[i])
	}
	return out
}

// Components returns the connected components of the sub-hypergraph induced
// by the edges in m, as masks, ordered by their lowest edge index. Two edges
// are connected when a path of pairwise-overlapping edges (within m) links
// them.
func (h *Hypergraph) Components(m Mask) []Mask {
	var comps []Mask
	remaining := m
	for remaining != 0 {
		seed := Mask(1) << uint(bits.TrailingZeros64(uint64(remaining)))
		comp := seed
		frontier := seed
		for frontier != 0 {
			var next Mask
			for _, i := range frontier.Indexes() {
				next |= h.adjacency[i] & remaining &^ comp
			}
			comp |= next
			frontier = next
		}
		comps = append(comps, comp)
		remaining &^= comp
	}
	return comps
}

// Connected reports whether the edges in m form a single connected
// component. The empty mask is not connected.
func (h *Hypergraph) Connected(m Mask) bool {
	if m == 0 {
		return false
	}
	seed := Mask(1) << uint(bits.TrailingZeros64(uint64(m)))
	comp := seed
	frontier := seed
	for frontier != 0 {
		var next Mask
		for _, i := range frontier.Indexes() {
			next |= h.adjacency[i] & m &^ comp
		}
		comp |= next
		frontier = next
	}
	return comp == m
}

// Overlapping reports whether the attribute sets of the two edge subsets
// share an attribute. Note this differs from Connected(a|b): two connected
// subsets whose unions overlap always form a connected union, which is the
// property Algorithm 1's Step 3 needs.
func (h *Hypergraph) Overlapping(a, b Mask) bool {
	return h.AttrsOf(a).Overlaps(h.AttrsOf(b))
}

// String renders the hypergraph as its edge list, using display names when
// the scheme was declared with them.
func (h *Hypergraph) String() string {
	parts := make([]string, len(h.edges))
	for i := range h.edges {
		parts[i] = h.DisplayName(i)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
