package hypergraph

import "fmt"

// JoinTree is a join tree over the edges of a hypergraph, produced by the
// GYO reduction of an acyclic scheme. Nodes are edge indexes; Parent[Root]
// is -1. The defining property: for every attribute, the set of nodes whose
// edge contains it forms a connected subtree.
type JoinTree struct {
	// Parent[i] is the parent edge index of edge i, or -1 for the root.
	Parent []int
	// Root is the index of the root edge.
	Root int
	// RemovalOrder lists the non-root edges in the order the GYO reduction
	// removed them (leaves of the reduction first). Processing semijoins in
	// this order, then in reverse, yields a full reducer.
	RemovalOrder []int
}

// GYO runs the Graham / Yu–Özsoyoğlu reduction. It returns a join tree and
// true when the scheme is acyclic (a "tree scheme"); otherwise nil and
// false.
//
// An ear is an edge e for which some other remaining edge f covers every
// attribute of e that also occurs in a third remaining edge; equivalently,
// each attribute of e is either exclusive to e or contained in f. Removing
// ears until a single edge remains succeeds exactly on acyclic schemes.
func (h *Hypergraph) GYO() (*JoinTree, bool) {
	n := len(h.edges)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	remaining := h.Full()
	var order []int

	for remaining.Count() > 1 {
		ear, par := h.findEar(remaining)
		if ear < 0 {
			return nil, false
		}
		parent[ear] = par
		order = append(order, ear)
		remaining = remaining.Without(ear)
	}
	root := remaining.Indexes()[0]
	return &JoinTree{Parent: parent, Root: root, RemovalOrder: order}, true
}

// findEar locates an ear within the remaining edges, returning its index and
// the witness parent edge, or (-1, -1) when none exists.
func (h *Hypergraph) findEar(remaining Mask) (ear, parent int) {
	idx := remaining.Indexes()
	for _, e := range idx {
		// shared = attributes of e occurring in some other remaining edge.
		var shared = h.edges[e].Intersect(h.AttrsOf(remaining.Without(e)))
		if shared.IsEmpty() {
			// e is isolated among the remaining edges; any other edge can
			// adopt it (this arises only for disconnected schemes).
			for _, f := range idx {
				if f != e {
					return e, f
				}
			}
		}
		for _, f := range idx {
			if f == e {
				continue
			}
			if h.edges[f].ContainsAll(shared) {
				return e, f
			}
		}
	}
	return -1, -1
}

// Acyclic reports whether the scheme is acyclic (GYO-reducible).
func (h *Hypergraph) Acyclic() bool {
	_, ok := h.GYO()
	return ok
}

// Validate checks the join-tree invariant against the hypergraph: for every
// attribute, the nodes containing it induce a connected subtree. It returns
// nil when the invariant holds.
func (t *JoinTree) Validate(h *Hypergraph) error {
	if len(t.Parent) != h.Len() {
		return fmt.Errorf("hypergraph: join tree has %d nodes, scheme has %d", len(t.Parent), h.Len())
	}
	for _, a := range h.Attrs() {
		// Collect nodes containing a.
		var holders []int
		for i := 0; i < h.Len(); i++ {
			if h.Edge(i).Contains(a) {
				holders = append(holders, i)
			}
		}
		if len(holders) <= 1 {
			continue
		}
		// The subtree induced by holders is connected iff each holder other
		// than the "highest" one has an ancestor path to another holder
		// through nodes... simpler: check that for every holder pair, every
		// node on the tree path between them also contains a. Equivalent
		// check: count holders whose parent chain reaches another holder
		// without leaving the holder set, expecting exactly one "top".
		tops := 0
		inSet := make(map[int]bool, len(holders))
		for _, v := range holders {
			inSet[v] = true
		}
		for _, v := range holders {
			p := t.Parent[v]
			if p == -1 || !inSet[p] {
				tops++
			}
		}
		if tops != 1 {
			return fmt.Errorf("hypergraph: attribute %q induces %d subtrees in the join tree", a, tops)
		}
	}
	return nil
}
