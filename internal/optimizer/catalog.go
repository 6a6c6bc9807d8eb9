// Package optimizer searches spaces of join expressions over a database.
//
// The paper's notion of optimality is data-dependent: the cost of a join
// expression is the number of tuples in its inputs and in every intermediate
// result on the actual database (§2.3). The exact optimizers therefore work
// against a Sizer — an oracle for |⋈D[S]| over subsets S of the scheme. Two
// implementations exist: Catalog measures true cardinalities on an actual
// database (materializing as little as it can), and workload.CycleSizer
// computes them in closed form for the Example-3 family.
//
// On top of the sizer sit exact dynamic programs for the four spaces the
// paper discusses — all bushy trees, CPF trees, linear trees, and linear CPF
// trees — and a greedy smallest-intermediate heuristic for schemes past the
// exact-search limit. Estimator inputs (Stats, histograms and the
// maintained sketches) are collected here too, for experiment EX4 and the
// served benchmark's probes; no search plans with them.
package optimizer

import (
	"fmt"
	"math"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// Sizer answers |⋈D[S]| queries for subsets of a database scheme. For a
// disconnected S the size is the product of its components' sizes
// (components share no attributes, so their join is a Cartesian product).
type Sizer interface {
	// Hypergraph returns the scheme the sizes are over.
	Hypergraph() *hypergraph.Hypergraph
	// Size returns |⋈D[S]| for the nonempty subset S of relation indexes.
	Size(mask hypergraph.Mask) (int64, error)
}

// Infinite is the sentinel cost for infeasible plans; arithmetic saturates
// at it rather than overflowing.
const Infinite = math.MaxInt64 / 4

// satAdd adds saturating at Infinite.
func satAdd(a, b int64) int64 {
	if a >= Infinite || b >= Infinite || a+b >= Infinite {
		return Infinite
	}
	return a + b
}

// satMul multiplies saturating at Infinite.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= Infinite || b >= Infinite || a > Infinite/b {
		return Infinite
	}
	return a * b
}

// Catalog computes and memoizes the true cardinality |⋈D[S]| for subsets S
// of a database's scheme. It materializes as little as possible: a connected
// subset's size is counted from the two halves of its cheapest partition
// (relation.JoinSizeBlocks) rather than by building the join, and only the
// partition halves themselves are materialized. Everything runs on the block
// kernels the executor uses: leaves are the relations' resident blocks
// (Relation.Block) and sub-joins are relation.JoinBlocksGoverned outputs on a
// governor whose MaxTuples is the catalog's budget, so the one that would
// cross it aborts in its count pass, before its output is allocated.
type Catalog struct {
	h  *hypergraph.Hypergraph
	db *relation.Database
	// mat holds materialized joins for connected masks.
	mat map[hypergraph.Mask]*relation.ColBlock
	// csize holds |⋈D[S]| for connected masks.
	csize map[hypergraph.Mask]int64
	// gov charges every materialized tuple against the budget.
	gov *govern.Governor
}

// defaultBudget is the cap on the total number of tuples a catalog
// materializes across all connected subsets when NewCatalog is given none.
const defaultBudget = 50_000_000

// NewCatalog builds a catalog for db. budget caps the total materialized
// tuples (0 = a default of 50 million); crossing it fails the size query
// with a *govern.LimitError, which matches govern.ErrTupleBudget.
func NewCatalog(db *relation.Database, budget int64) *Catalog {
	if budget <= 0 {
		budget = defaultBudget
	}
	return &Catalog{
		h:     hypergraph.OfScheme(db),
		db:    db,
		mat:   make(map[hypergraph.Mask]*relation.ColBlock),
		csize: make(map[hypergraph.Mask]int64),
		gov:   govern.New(govern.Limits{MaxTuples: budget}),
	}
}

// Hypergraph returns the scheme's hypergraph.
func (c *Catalog) Hypergraph() *hypergraph.Hypergraph { return c.h }

// Database returns the underlying database.
func (c *Catalog) Database() *relation.Database { return c.db }

// Size returns |⋈D[S]| for the subset S of relation indexes.
func (c *Catalog) Size(mask hypergraph.Mask) (int64, error) {
	if mask == 0 {
		return 0, fmt.Errorf("optimizer: size of the empty subset")
	}
	total := int64(1)
	for _, comp := range c.h.Components(mask) {
		sz, err := c.connectedSize(comp)
		if err != nil {
			return 0, err
		}
		total = satMul(total, sz)
	}
	return total, nil
}

// connectedSize computes |⋈D[S]| for connected S. It picks the partition
// (L, R) of S into two connected halves whose larger half is smallest,
// materializes only the halves, and counts their join without building it.
func (c *Catalog) connectedSize(mask hypergraph.Mask) (int64, error) {
	if got, ok := c.csize[mask]; ok {
		return got, nil
	}
	if mask.Count() == 1 {
		sz := int64(c.db.Relation(mask.Indexes()[0]).Len())
		c.csize[mask] = sz
		return sz, nil
	}
	l, r, err := c.bestPartition(mask)
	if err != nil {
		return 0, err
	}
	a, err := c.materialize(l)
	if err != nil {
		return 0, err
	}
	b, err := c.materialize(r)
	if err != nil {
		return 0, err
	}
	sz := min(relation.JoinSizeBlocks(a, b), Infinite)
	c.csize[mask] = sz
	return sz, nil
}

// bestPartition returns the partition of connected mask into two connected
// halves minimizing the size of the larger half.
func (c *Catalog) bestPartition(mask hypergraph.Mask) (hypergraph.Mask, hypergraph.Mask, error) {
	var bestL, bestR hypergraph.Mask
	bestMax := int64(math.MaxInt64)
	for l := (mask - 1) & mask; l != 0; l = (l - 1) & mask {
		r := mask &^ l
		if l < r {
			continue // each unordered partition once
		}
		if !c.h.Connected(l) || !c.h.Connected(r) {
			continue
		}
		ls, err := c.connectedSize(l)
		if err != nil {
			return 0, 0, err
		}
		rs, err := c.connectedSize(r)
		if err != nil {
			return 0, 0, err
		}
		m := ls
		if rs > m {
			m = rs
		}
		if m < bestMax {
			bestMax = m
			bestL, bestR = l, r
		}
	}
	if bestL == 0 {
		return 0, 0, fmt.Errorf("optimizer: connected subset %s has no connected bipartition", mask)
	}
	return bestL, bestR, nil
}

// materialize returns the block ⋈D[S] for a connected subset S,
// materializing (and memoizing) it on first use. It builds S one relation at
// a time, removing at each step the relation whose remainder is smallest.
func (c *Catalog) materialize(mask hypergraph.Mask) (*relation.ColBlock, error) {
	if got, ok := c.mat[mask]; ok {
		return got, nil
	}
	if !c.h.Connected(mask) {
		return nil, fmt.Errorf("optimizer: materialize of disconnected subset %s", mask)
	}
	if mask.Count() == 1 {
		b := c.db.Relation(mask.Indexes()[0]).Block()
		c.mat[mask] = b
		return b, nil
	}
	// Remove the relation whose removal keeps the rest connected and makes
	// the remainder smallest.
	bestI := -1
	bestSize := int64(math.MaxInt64)
	for _, i := range mask.Indexes() {
		rest := mask.Without(i)
		if !c.h.Connected(rest) {
			continue
		}
		sz, err := c.connectedSize(rest)
		if err != nil {
			return nil, err
		}
		if sz < bestSize {
			bestSize = sz
			bestI = i
		}
	}
	if bestI < 0 {
		return nil, fmt.Errorf("optimizer: internal error: no removable relation in connected subset %s", mask)
	}
	base, err := c.materialize(mask.Without(bestI))
	if err != nil {
		return nil, err
	}
	out, err := relation.JoinBlocksGoverned(c.gov, base, c.db.Relation(bestI).Block())
	if err != nil {
		return nil, fmt.Errorf("optimizer: search materializing %s: %w", mask, err)
	}
	c.mat[mask] = out
	return out, nil
}
