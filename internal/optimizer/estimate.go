package optimizer

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
)

// Stats holds the per-relation statistics the estimator uses: cardinality
// and per-attribute distinct-value counts.
type Stats struct {
	// Card is the relation's cardinality.
	Card int64
	// Distinct maps each attribute to its number of distinct values.
	Distinct map[string]int64
}

// CollectStats scans a relation once and returns its statistics.
func CollectStats(r *relation.Relation) Stats {
	s := Stats{Card: int64(r.Len()), Distinct: make(map[string]int64, r.Schema().Len())}
	for col, attr := range r.Schema().Attrs() {
		seen := make(map[relation.Value]struct{}, r.Len())
		for _, t := range r.Rows() {
			seen[t[col]] = struct{}{}
		}
		s.Distinct[attr] = int64(len(seen))
	}
	return s
}

// Estimator predicts join cardinalities under the classic independence and
// uniformity assumptions (System R): |L ⋈ R| ≈ |L|·|R| / Π_a max(dL(a),
// dR(a)) over the shared attributes a, with result distinct counts
// min(dL, dR) capped by the estimated cardinality.
type Estimator struct {
	base []Stats
}

// NewEstimator collects statistics from every relation of the database.
func NewEstimator(db *relation.Database) *Estimator {
	e := &Estimator{base: make([]Stats, db.Len())}
	for i := 0; i < db.Len(); i++ {
		e.base[i] = CollectStats(db.Relation(i))
	}
	return e
}

// joinStats combines two operand statistics into the join's.
func joinStats(l, r Stats) Stats {
	card := satMul(l.Card, r.Card)
	out := Stats{Distinct: make(map[string]int64, len(l.Distinct)+len(r.Distinct))}
	for a, dl := range l.Distinct {
		if dr, shared := r.Distinct[a]; shared {
			div := dl
			if dr > div {
				div = dr
			}
			if div > 0 {
				card = card / div
			}
			if dl < dr {
				out.Distinct[a] = dl
			} else {
				out.Distinct[a] = dr
			}
		} else {
			out.Distinct[a] = dl
		}
	}
	for a, dr := range r.Distinct {
		if _, shared := l.Distinct[a]; !shared {
			out.Distinct[a] = dr
		}
	}
	if card < 1 {
		card = 1
	}
	out.Card = card
	for a, d := range out.Distinct {
		if d > card {
			out.Distinct[a] = card
		}
	}
	return out
}

// EstimateTree returns the estimated cost of a tree: estimated cardinalities
// summed exactly like the paper's true-cost model.
func (e *Estimator) EstimateTree(t *jointree.Tree) (cost int64, stats Stats) {
	if t.IsLeaf() {
		s := e.base[t.Leaf]
		return s.Card, s
	}
	lc, ls := e.EstimateTree(t.Left)
	rc, rs := e.EstimateTree(t.Right)
	js := joinStats(ls, rs)
	return satAdd(satAdd(lc, rc), js.Card), js
}

// EstimatedOptimal runs a System-R-style dynamic program over estimated
// cardinalities and returns the tree it believes cheapest, together with its
// estimated cost. Restricting to SpaceCPF or SpaceLinearCPF applies the
// avoid-Cartesian-products heuristic inside the estimator's search, exactly
// as the optimizers the paper cites do.
func EstimatedOptimal(db *relation.Database, space Space) (Plan, error) {
	h := hypergraph.OfScheme(db)
	n := h.Len()
	if n > MaxExactRelations {
		return Plan{}, fmt.Errorf("optimizer: %d relations exceeds the exact-search limit %d", n, MaxExactRelations)
	}
	e := NewEstimator(db)
	full := h.Full()

	type cell struct {
		cost  int64
		stats Stats
		left  hypergraph.Mask
		right hypergraph.Mask
		last  int
	}
	best := make(map[hypergraph.Mask]cell, 1<<uint(n))
	linear := space == SpaceLinear || space == SpaceLinearCPF
	cpf := space == SpaceCPF || space == SpaceLinearCPF

	for mask := hypergraph.Mask(1); mask <= full; mask++ {
		if mask.Count() == 1 {
			i := mask.Indexes()[0]
			best[mask] = cell{cost: e.base[i].Card, stats: e.base[i], last: -1}
			continue
		}
		cur := cell{cost: Infinite, last: -1}
		consider := func(l, r hypergraph.Mask, last int) {
			lc, lok := best[l]
			rc, rok := best[r]
			if !lok || !rok {
				return
			}
			if cpf && !h.Overlapping(l, r) {
				return
			}
			js := joinStats(lc.stats, rc.stats)
			total := satAdd(satAdd(lc.cost, rc.cost), js.Card)
			if total < cur.cost {
				cur = cell{cost: total, stats: js, left: l, right: r, last: last}
			}
		}
		if linear {
			for _, i := range mask.Indexes() {
				consider(mask.Without(i), hypergraph.MaskOf(i), i)
			}
		} else {
			for l := (mask - 1) & mask; l != 0; l = (l - 1) & mask {
				r := mask &^ l
				if l < r {
					continue
				}
				consider(l, r, 0)
			}
		}
		if cur.cost < Infinite {
			best[mask] = cur
		}
	}

	root, ok := best[full]
	if !ok {
		return Plan{}, fmt.Errorf("optimizer: no estimated plan in space %s", space)
	}
	var build func(mask hypergraph.Mask) *jointree.Tree
	build = func(mask hypergraph.Mask) *jointree.Tree {
		c := best[mask]
		if mask.Count() == 1 {
			return jointree.NewLeaf(mask.Indexes()[0])
		}
		return jointree.NewJoin(build(c.left), build(c.right))
	}
	return Plan{Tree: build(full), Cost: root.cost}, nil
}
