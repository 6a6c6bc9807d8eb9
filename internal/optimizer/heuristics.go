package optimizer

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// Greedy builds a bushy plan by repeatedly joining the pair of current
// subtrees whose join result is smallest (ties: lowest masks), a classic
// smallest-intermediate heuristic. The last join, the only candidate left,
// is not sized. With cpfOnly set, only overlapping pairs are considered; it
// then fails on disconnected schemes.
func Greedy(c Sizer, cpfOnly bool) (Plan, error) {
	c = rootless{c}
	type part struct {
		mask hypergraph.Mask
		tree *jointree.Tree
	}
	parts := make([]part, c.Hypergraph().Len())
	for i := range parts {
		parts[i] = part{mask: hypergraph.MaskOf(i), tree: jointree.NewLeaf(i)}
	}
	for len(parts) > 1 {
		bestI, bestJ := -1, -1
		bestSize := int64(math.MaxInt64)
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				if cpfOnly && !c.Hypergraph().Overlapping(parts[i].mask, parts[j].mask) {
					continue
				}
				size, err := c.Size(parts[i].mask | parts[j].mask)
				if err != nil {
					return Plan{}, err
				}
				if size < bestSize {
					bestSize = size
					bestI, bestJ = i, j
				}
			}
		}
		if bestI < 0 {
			return Plan{}, fmt.Errorf("optimizer: greedy found no joinable pair (disconnected scheme under CPF)")
		}
		merged := part{
			mask: parts[bestI].mask | parts[bestJ].mask,
			tree: jointree.NewJoin(parts[bestI].tree, parts[bestJ].tree),
		}
		parts = append(parts[:bestJ], parts[bestJ+1:]...)
		parts[bestI] = merged
	}
	cost, err := CostOf(c, parts[0].tree)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Tree: parts[0].tree, Cost: cost}, nil
}
