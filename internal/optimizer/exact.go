package optimizer

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// Plan is a join expression tree with its exact search cost on the database
// the optimizer ran against.
type Plan struct {
	Tree *jointree.Tree
	// Cost is the paper's cost(E(D)) less |⋈D|: Σ|R| over leaves plus every
	// intermediate, without the final result (0 for a single relation).
	// CostOf includes it.
	Cost int64
}

// rootless is the sizer the searches run on: it answers 0 for the full
// scheme. Every join expression pays |⋈D| at its root, so leaving it out
// changes no choice, and the search never sizes the largest join there is.
type rootless struct{ Sizer }

// Size returns 0 for the full scheme and the wrapped sizer's answer below it.
func (r rootless) Size(mask hypergraph.Mask) (int64, error) {
	if mask == r.Hypergraph().Full() {
		return 0, nil
	}
	return r.Sizer.Size(mask)
}

// MaxExactRelations bounds the exhaustive dynamic programs: the bushy DP
// enumerates all partitions of all subsets (3^n work).
const MaxExactRelations = 16

// Space selects a search space of join expressions.
type Space int

const (
	// SpaceAll is every join expression tree (bushy, products allowed).
	SpaceAll Space = iota
	// SpaceCPF is every Cartesian-product-free tree.
	SpaceCPF
	// SpaceLinear is every linear tree (products allowed).
	SpaceLinear
	// SpaceLinearCPF is every linear Cartesian-product-free tree.
	SpaceLinearCPF
)

// String names the space.
func (s Space) String() string {
	switch s {
	case SpaceAll:
		return "all"
	case SpaceCPF:
		return "CPF"
	case SpaceLinear:
		return "linear"
	case SpaceLinearCPF:
		return "linear-CPF"
	default:
		return fmt.Sprintf("Space(%d)", int(s))
	}
}

// Optimal finds a cheapest join expression in the given space by exact
// dynamic programming over true cardinalities. It returns an error when the
// scheme is too large, the space is empty (a disconnected scheme has no CPF
// tree), or the sizer fails (a catalog over its tuple budget).
func Optimal(c Sizer, space Space) (Plan, error) {
	c = rootless{c}
	n := c.Hypergraph().Len()
	if n > MaxExactRelations {
		return Plan{}, fmt.Errorf("optimizer: %d relations exceeds the exact-search limit %d", n, MaxExactRelations)
	}
	switch space {
	case SpaceAll:
		return optimalBushy(c, false)
	case SpaceCPF:
		return optimalBushy(c, true)
	case SpaceLinear:
		return optimalLinear(c, false)
	case SpaceLinearCPF:
		return optimalLinear(c, true)
	default:
		return Plan{}, fmt.Errorf("optimizer: unknown space %v", space)
	}
}

// leafSize returns |R_i| through the sizer; singleton sizes never fail for
// a well-formed sizer, so errors collapse to Infinite.
func leafSize(c Sizer, i int) int64 {
	sz, err := c.Size(hypergraph.MaskOf(i))
	if err != nil {
		return Infinite
	}
	return sz
}

// cell is one DP entry: the best cost for a subset and the partition that
// achieves it (left == 0 marks a leaf).
type cell struct {
	cost  int64
	left  hypergraph.Mask
	right hypergraph.Mask
}

// build returns the tree the DP table best holds for mask.
func build(best map[hypergraph.Mask]cell, mask hypergraph.Mask) *jointree.Tree {
	c := best[mask]
	if c.left == 0 {
		return jointree.NewLeaf(mask.Indexes()[0])
	}
	return jointree.NewJoin(build(best, c.left), build(best, c.right))
}

// optimalBushy runs the subset DP. With cpf set, only partitions whose sides
// share an attribute (and, recursively, are CPF) are admitted, and only
// connected subsets have entries.
func optimalBushy(c Sizer, cpf bool) (Plan, error) {
	n := c.Hypergraph().Len()
	full := c.Hypergraph().Full()
	best := make(map[hypergraph.Mask]cell, 1<<uint(n))

	// Subsets in increasing cardinality: iterate all masks; a mask's proper
	// submasks are numerically smaller, so ascending mask order works.
	for mask := hypergraph.Mask(1); mask <= full; mask++ {
		if mask.Count() == 1 {
			best[mask] = cell{cost: leafSize(c, mask.Indexes()[0])}
			continue
		}
		if cpf && !c.Hypergraph().Connected(mask) {
			continue
		}
		size, err := c.Size(mask)
		if err != nil {
			return Plan{}, err
		}
		split := cell{cost: Infinite}
		for l := (mask - 1) & mask; l != 0; l = (l - 1) & mask {
			r := mask &^ l
			if l < r {
				// Each unordered partition once; operand order does not
				// affect cost.
				continue
			}
			lc, lok := best[l]
			rc, rok := best[r]
			if !lok || !rok {
				continue
			}
			if cpf && !c.Hypergraph().Overlapping(l, r) {
				continue
			}
			if total := satAdd(lc.cost, rc.cost); total < split.cost {
				split = cell{cost: total, left: l, right: r}
			}
		}
		if split.cost >= Infinite {
			continue // no feasible partition (CPF over non-splittable subset)
		}
		split.cost = satAdd(split.cost, size)
		best[mask] = split
	}

	root, ok := best[full]
	if !ok || root.cost >= Infinite {
		return Plan{}, fmt.Errorf("optimizer: no plan in space %s (disconnected scheme?)", map[bool]Space{false: SpaceAll, true: SpaceCPF}[cpf])
	}
	return Plan{Tree: build(best, full), Cost: root.cost}, nil
}

// optimalLinear runs the left-deep DP: dp[S] = |⋈D[S]| + min over i∈S of
// dp[S−i] + |R_i| (the leaf cost of the appended relation). With cpf set,
// only extensions sharing an attribute with the prefix are admitted.
func optimalLinear(c Sizer, cpf bool) (Plan, error) {
	full := c.Hypergraph().Full()
	best := make(map[hypergraph.Mask]cell, 1<<uint(c.Hypergraph().Len()))

	for mask := hypergraph.Mask(1); mask <= full; mask++ {
		if mask.Count() == 1 {
			best[mask] = cell{cost: leafSize(c, mask.Indexes()[0])}
			continue
		}
		ext := cell{cost: Infinite}
		for _, i := range mask.Indexes() {
			rest := mask.Without(i)
			sub, ok := best[rest]
			if !ok {
				continue
			}
			if cpf && !c.Hypergraph().Overlapping(rest, hypergraph.MaskOf(i)) {
				continue
			}
			if total := satAdd(sub.cost, leafSize(c, i)); total < ext.cost {
				ext = cell{cost: total, left: rest, right: hypergraph.MaskOf(i)}
			}
		}
		if ext.left == 0 {
			continue
		}
		size, err := c.Size(mask)
		if err != nil {
			return Plan{}, err
		}
		ext.cost = satAdd(ext.cost, size)
		best[mask] = ext
	}

	root, ok := best[full]
	if !ok || root.cost >= Infinite {
		return Plan{}, fmt.Errorf("optimizer: no plan in space %s", map[bool]Space{false: SpaceLinear, true: SpaceLinearCPF}[cpf])
	}
	return Plan{Tree: build(best, full), Cost: root.cost}, nil
}

// CostOf evaluates the paper's cost of an arbitrary tree using the catalog
// (no joins beyond the catalog's connected materializations are executed;
// every node's size comes from component products).
func CostOf(c Sizer, t *jointree.Tree) (int64, error) {
	if t.IsLeaf() {
		return leafSize(c, t.Leaf), nil
	}
	lc, err := CostOf(c, t.Left)
	if err != nil {
		return 0, err
	}
	rc, err := CostOf(c, t.Right)
	if err != nil {
		return 0, err
	}
	size, err := c.Size(t.Mask())
	if err != nil {
		return 0, err
	}
	return satAdd(satAdd(lc, rc), size), nil
}
