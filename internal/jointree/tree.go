// Package jointree implements join expression trees (§2.4 of the paper):
// binary trees whose leaves are relation scheme occurrences and whose
// internal nodes are joins. It provides the Cartesian-product-free and
// linear predicates, evaluation under the paper's cost model, structural
// utilities, a parser/printer for the paper's notation, and exhaustive
// enumerators over the tree spaces whose sizes the paper discusses.
package jointree

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// Tree is a join expression tree exactly over some database scheme: each
// relation scheme occurrence (edge index) appears at exactly one leaf.
// A node is a leaf when Leaf >= 0, in which case Left and Right are nil;
// otherwise it is a join of its two children.
type Tree struct {
	// Leaf is the relation scheme occurrence index, or -1 for a join node.
	Leaf int
	// Left and Right are the join operands of an internal node.
	Left, Right *Tree
}

// NewLeaf returns a leaf for relation index i.
func NewLeaf(i int) *Tree { return &Tree{Leaf: i} }

// NewJoin returns the join node l ⋈ r.
func NewJoin(l, r *Tree) *Tree { return &Tree{Leaf: -1, Left: l, Right: r} }

// IsLeaf reports whether t is a leaf.
func (t *Tree) IsLeaf() bool { return t.Leaf >= 0 }

// Mask returns the set of relation indexes at the leaves of t.
func (t *Tree) Mask() hypergraph.Mask {
	if t.IsLeaf() {
		return hypergraph.MaskOf(t.Leaf)
	}
	return t.Left.Mask() | t.Right.Mask()
}

// Size returns the number of leaves.
func (t *Tree) Size() int {
	if t.IsLeaf() {
		return 1
	}
	return t.Left.Size() + t.Right.Size()
}

// Validate checks that t is exactly over the scheme of h: every edge index
// in [0, h.Len()) appears at exactly one leaf.
func (t *Tree) Validate(h *hypergraph.Hypergraph) error {
	seen := make([]int, h.Len())
	var walk func(*Tree) error
	walk = func(n *Tree) error {
		if n == nil {
			return fmt.Errorf("jointree: nil subtree")
		}
		if n.IsLeaf() {
			if n.Leaf >= h.Len() {
				return fmt.Errorf("jointree: leaf index %d out of range [0,%d)", n.Leaf, h.Len())
			}
			seen[n.Leaf]++
			return nil
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	if err := walk(t); err != nil {
		return err
	}
	for i, c := range seen {
		if c != 1 {
			return fmt.Errorf("jointree: relation %d occurs %d times (want exactly 1)", i, c)
		}
	}
	return nil
}

// IsCPF reports whether the tree is Cartesian-product-free over h: at every
// join node the operands' attribute sets overlap. Equivalently (paper §2.4),
// every node of the tree is a connected database scheme.
func (t *Tree) IsCPF(h *hypergraph.Hypergraph) bool {
	if t.IsLeaf() {
		return true
	}
	if !h.AttrsOf(t.Left.Mask()).Overlaps(h.AttrsOf(t.Right.Mask())) {
		return false
	}
	return t.Left.IsCPF(h) && t.Right.IsCPF(h)
}

// CartesianProducts returns the join nodes of t that are Cartesian products,
// in preorder. Empty result means the tree is CPF.
func (t *Tree) CartesianProducts(h *hypergraph.Hypergraph) []*Tree {
	var out []*Tree
	var walk func(*Tree)
	walk = func(n *Tree) {
		if n.IsLeaf() {
			return
		}
		if !h.AttrsOf(n.Left.Mask()).Overlaps(h.AttrsOf(n.Right.Mask())) {
			out = append(out, n)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t)
	return out
}

// IsLinear reports whether the tree is a linear join expression
// (...(R1 ⋈ R2) ⋈ ...) ⋈ Rn, up to swapping operands at each join: every
// internal node has at least one leaf child. The paper's cost model is
// symmetric in the operands, so mirrored spines are equivalent.
func (t *Tree) IsLinear() bool {
	if t.IsLeaf() {
		return true
	}
	if !t.Left.IsLeaf() && !t.Right.IsLeaf() {
		return false
	}
	return t.Left.IsLinear() && t.Right.IsLinear()
}

// Equal reports structural equality (same shape and leaf indexes).
func (t *Tree) Equal(u *Tree) bool {
	if t.IsLeaf() || u.IsLeaf() {
		return t.Leaf == u.Leaf
	}
	return t.Left.Equal(u.Left) && t.Right.Equal(u.Right)
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	if t.IsLeaf() {
		return NewLeaf(t.Leaf)
	}
	return NewJoin(t.Left.Clone(), t.Right.Clone())
}

// Canon returns a canonical string key for the tree, treating join as
// noncommutative (the paper distinguishes E1 ⋈ E2 from E2 ⋈ E1 as
// expressions, and Algorithm 2 is sensitive to operand order).
func (t *Tree) Canon() string {
	if t.IsLeaf() {
		return fmt.Sprintf("%d", t.Leaf)
	}
	return "(" + t.Left.Canon() + " " + t.Right.Canon() + ")"
}

// Eval evaluates the tree over the database (which must have one relation
// per edge of the scheme the tree is over) on the tuple-map operators and
// returns the result together with the paper's cost: the sum of |R| over
// all leaves and all intermediate (and final) join results (§2.3). It is the
// reference evaluator; queries run the tree as its compiled program (Program)
// on the block executor.
func (t *Tree) Eval(db *relation.Database) (*relation.Relation, int) {
	if t.IsLeaf() {
		r := db.Relation(t.Leaf)
		return r, r.Len()
	}
	l, cl := t.Left.Eval(db)
	r, cr := t.Right.Eval(db)
	out := relation.Join(l, r)
	return out, out.Len() + cl + cr
}

// Cost returns only the cost of Eval.
func (t *Tree) Cost(db *relation.Database) int {
	_, c := t.Eval(db)
	return c
}
