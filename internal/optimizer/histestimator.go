package optimizer

import (
	"sort"

	"repro/internal/jointree"
)

// HistogramEstimator refines the independence Estimator with equi-depth
// histograms on every base-relation attribute. Joins whose operands are
// base relations (or whose shared attributes' histograms are still valid —
// i.e. the attribute came through untouched from a single base relation)
// estimate each shared attribute's selectivity from the aligned histograms
// instead of distinct counts; deeper combinations fall back to the
// independence rule.
type HistogramEstimator struct {
	base  []Stats
	hists []map[string]*Histogram
}

// NewHistogramEstimatorFromSketches derives a HistogramEstimator from
// maintained sketches without touching the relations: both the Stats and
// the equi-depth histograms come straight out of the sketches' value
// counts. sks[i] must describe relation i in database order.
func NewHistogramEstimatorFromSketches(sks []*Sketch, buckets int) *HistogramEstimator {
	if buckets <= 0 {
		buckets = 32
	}
	e := &HistogramEstimator{
		base:  make([]Stats, len(sks)),
		hists: make([]map[string]*Histogram, len(sks)),
	}
	for i, s := range sks {
		e.base[i] = s.Stats()
		e.hists[i] = make(map[string]*Histogram, len(s.Attrs()))
		for _, a := range s.Attrs() {
			e.hists[i][a] = s.Histogram(a, buckets)
		}
	}
	return e
}

// nodeEstimate carries the estimator's per-node state: cardinality,
// distinct counts, and — for attributes that still reflect a single base
// relation — the histogram to align against.
type nodeEstimate struct {
	stats Stats
	hists map[string]*Histogram
}

// EstimateTree returns the estimated cost of the tree under the paper's
// cost model, with histogram-driven base-join selectivities.
func (e *HistogramEstimator) EstimateTree(t *jointree.Tree) (int64, Stats) {
	cost, node := e.estimate(t)
	return cost, node.stats
}

func (e *HistogramEstimator) estimate(t *jointree.Tree) (int64, nodeEstimate) {
	if t.IsLeaf() {
		return e.base[t.Leaf].Card, nodeEstimate{stats: e.base[t.Leaf], hists: e.hists[t.Leaf]}
	}
	lc, l := e.estimate(t.Left)
	rc, r := e.estimate(t.Right)

	// Shared attributes, sorted for determinism.
	var shared []string
	for a := range l.stats.Distinct {
		if _, ok := r.stats.Distinct[a]; ok {
			shared = append(shared, a)
		}
	}
	sort.Strings(shared)

	card := float64(l.stats.Card) * float64(r.stats.Card)
	for _, a := range shared {
		var sel float64
		lh, lok := l.hists[a]
		rh, rok := r.hists[a]
		if lok && rok && lh.TotalRows() > 0 && rh.TotalRows() > 0 {
			matches := float64(EstimateEquiJoin(lh, rh))
			sel = matches / (float64(lh.TotalRows()) * float64(rh.TotalRows()))
		} else {
			d := l.stats.Distinct[a]
			if r.stats.Distinct[a] > d {
				d = r.stats.Distinct[a]
			}
			if d > 0 {
				sel = 1 / float64(d)
			} else {
				sel = 1
			}
		}
		card *= sel
	}
	if card < 1 {
		card = 1
	}
	if card > float64(Infinite) {
		card = float64(Infinite)
	}

	// Combine stats like the independence estimator; histograms survive for
	// attributes present in exactly one operand (their distribution is
	// untouched by the join under the usual containment assumption).
	out := nodeEstimate{
		stats: Stats{Card: int64(card), Distinct: make(map[string]int64, len(l.stats.Distinct)+len(r.stats.Distinct))},
		hists: make(map[string]*Histogram, len(l.hists)+len(r.hists)),
	}
	merge := func(side nodeEstimate, other nodeEstimate) {
		for a, d := range side.stats.Distinct {
			if od, sharedAttr := other.stats.Distinct[a]; sharedAttr {
				m := d
				if od < m {
					m = od
				}
				out.stats.Distinct[a] = m
			} else {
				out.stats.Distinct[a] = d
				if h, ok := side.hists[a]; ok {
					out.hists[a] = h
				}
			}
		}
	}
	merge(l, r)
	merge(r, l)
	for a, d := range out.stats.Distinct {
		if d > out.stats.Card {
			out.stats.Distinct[a] = out.stats.Card
		}
	}
	return satAdd(satAdd(lc, rc), out.stats.Card), out
}
