package optimizer

import "repro/internal/relation"

// Stats holds a relation's estimator statistics: cardinality and
// per-attribute distinct-value counts.
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
