package optimizer

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
)

// The hybrid chooser: given a scheme and its maintained sketches, estimate
// the §2.3 cost of three physical routes and pick the cheapest —
//
//	binary: one binary-join tree over the whole scheme (columnar kernels),
//	        the System-R-style DP over sketch statistics, refined with
//	        sketch-derived equi-depth histograms so heavy hitters surface;
//	wcoj:   one worst-case-optimal triejoin over the whole scheme, costed
//	        as trie inputs (with a constant-factor handicap for the sort)
//	        plus the estimated output;
//	mixed:  wcoj on the cyclic core only (hypergraph.Core), its output fed
//	        as a leaf into a binary tree over the remaining edges — the
//	        hybrid-plan shape of "Optimizing Queries with Many-to-Many
//	        Joins": worst-case-optimal where skew concentrates, binary
//	        joins elsewhere.
//
// Acyclic schemes route to the reducer pipeline unconditionally. All
// generated-tuple estimates are scaled by a served-traffic correction
// factor (DBSketches.Correction) so q-error feedback shifts future routing.

// The chooser's fixed tuning.
const (
	// trieCostFactor handicaps wcoj's trie build: its inputs count this many
	// times in the route comparison (but never in EstCost, which stays the
	// plain §2.3 estimate).
	trieCostFactor = 2
	// skewThreshold is the heavy-hitter ratio (max degree over mean degree)
	// past which, when the DP is unavailable, the chooser routes cyclic
	// schemes to wcoj outright.
	skewThreshold = 8
	// histogramBuckets is the equi-depth histogram resolution.
	histogramBuckets = 32
)

// Route names for HybridChoice.Route.
const (
	RouteAcyclic = "acyclic"
	RouteBinary  = "binary"
	RouteWCOJ    = "wcoj"
	RouteMixed   = "mixed"
)

// HybridChoice is the chooser's decision.
type HybridChoice struct {
	// Route is one of the Route* constants.
	Route string
	// Core is the cyclic core (edge mask of the input hypergraph); set for
	// the wcoj and mixed routes.
	Core hypergraph.Mask
	// Outer is the chosen binary tree. For RouteBinary (and RouteAcyclic)
	// its leaves index the scheme's edges. For RouteMixed leaf 0 is the
	// core's output and leaf k>0 is the k-th non-core edge in ascending
	// index order. Nil when the DP was unavailable (the planner then
	// searches a binary tree itself).
	Outer *jointree.Tree
	// EstCost is the chosen route's estimated §2.3 cost — inputs plus
	// correction-scaled generated tuples, with no handicap — the number
	// q-error is measured against.
	EstCost int64
	// EstBinary/EstWCOJ/EstMixed are the handicapped comparables the
	// decision was made on (0 = route unavailable).
	EstBinary, EstWCOJ, EstMixed int64
	// Skew is the worst per-relation heavy-hitter ratio.
	Skew float64
	// Correction is the feedback factor applied to generated-tuple terms.
	Correction float64
	// Notes explains the decision for Explain output.
	Notes []string
}

// scale multiplies a saturating count by a non-negative float factor.
func scale(x int64, f float64) int64 {
	if x >= Infinite {
		return Infinite
	}
	v := float64(x) * f
	if v >= float64(Infinite) {
		return Infinite
	}
	if v < 0 {
		return 0
	}
	return int64(v)
}

// ChooseHybrid picks the physical route for scheme h given per-relation
// sketches (sks[i] describes the relation behind edge i) and the feedback
// correction factor corr (1 = no feedback yet).
func ChooseHybrid(h *hypergraph.Hypergraph, sks []*Sketch, corr float64) (HybridChoice, error) {
	if h.Len() != len(sks) {
		return HybridChoice{}, fmt.Errorf("optimizer: %d sketches for %d edges", len(sks), h.Len())
	}
	if corr <= 0 {
		corr = 1
	}
	stats := make([]Stats, len(sks))
	var inputs int64
	skew := 1.0
	for i, s := range sks {
		stats[i] = s.Stats()
		inputs = satAdd(inputs, stats[i].Card)
		if sk := s.Skew(); sk > skew {
			skew = sk
		}
	}
	ch := HybridChoice{Skew: skew, Correction: corr}
	note := func(format string, args ...any) {
		ch.Notes = append(ch.Notes, fmt.Sprintf(format, args...))
	}
	note("skew=%.2f correction=%.2f", skew, corr)

	hist := NewHistogramEstimatorFromSketches(sks, histogramBuckets)

	// treeFor runs the estimated DP over an arbitrary scheme; CPF first,
	// falling back to the unrestricted space for disconnected schemes
	// (where every complete plan crosses a product).
	treeFor := func(hh *hypergraph.Hypergraph, base []Stats) (*jointree.Tree, bool) {
		if p, err := EstimatedOptimalStats(hh, base, SpaceCPF); err == nil {
			return p.Tree, true
		}
		if p, err := EstimatedOptimalStats(hh, base, SpaceAll); err == nil {
			return p.Tree, true
		}
		return nil, false
	}

	if h.Acyclic() {
		ch.Route = RouteAcyclic
		if tree, ok := treeFor(h, stats); ok {
			cost, _ := hist.EstimateTree(tree)
			ch.Outer = tree
			ch.EstCost = satAdd(inputs, scale(cost-inputs, corr))
		} else {
			ch.EstCost = inputs
		}
		note("acyclic scheme: reducer pipeline, est=%d", ch.EstCost)
		return ch, nil
	}

	core := h.Core()
	if core == 0 {
		core = h.Full()
	}
	ch.Core = core

	// Binary comparable: DP tree over the whole scheme, histogram-refined.
	var binTree *jointree.Tree
	var binGen, outZ int64
	haveBin := false
	if tree, ok := treeFor(h, stats); ok {
		cost, root := hist.EstimateTree(tree)
		binTree = tree
		binGen = cost - inputs
		outZ = root.Card
		haveBin = true
		ch.EstBinary = satAdd(inputs, scale(binGen, corr))
	}

	if !haveBin {
		// Too many relations for the exact DP: decide on skew alone.
		if skew >= skewThreshold {
			ch.Route = RouteWCOJ
			ch.EstCost = inputs
			note("DP unavailable (%d edges); skew %.2f >= %.2f routes to wcoj", h.Len(), skew, float64(skewThreshold))
		} else {
			ch.Route = RouteBinary
			ch.EstCost = inputs
			note("DP unavailable (%d edges); low skew routes to binary search fallback", h.Len())
		}
		return ch, nil
	}

	// WCOJ comparable: trie inputs (handicapped) plus the same
	// histogram-refined output estimate the binary root carries.
	ch.EstWCOJ = satAdd(scale(inputs, trieCostFactor), scale(outZ, corr))
	wcojEstCost := satAdd(inputs, scale(outZ, corr))

	// Mixed comparable: wcoj on the core, binary joins over its output and
	// the pendant edges.
	var mixedTree *jointree.Tree
	var mixedEstCost int64
	haveMixed := false
	if core != h.Full() && core.Count() >= 2 && h.Len()-core.Count() >= 1 {
		coreIdx := core.Indexes()
		var coreTree *jointree.Tree
		for _, i := range coreIdx {
			leaf := jointree.NewLeaf(i)
			if coreTree == nil {
				coreTree = leaf
			} else {
				coreTree = jointree.NewJoin(coreTree, leaf)
			}
		}
		_, coreNode := hist.estimate(coreTree)
		var coreInputs int64
		for _, i := range coreIdx {
			coreInputs = satAdd(coreInputs, stats[i].Card)
		}
		coreZ := coreNode.stats.Card

		outerEdges := []relation.AttrSet{h.AttrsOf(core)}
		outerBase := []Stats{coreNode.stats}
		outerHists := []map[string]*Histogram{coreNode.hists}
		for i := 0; i < h.Len(); i++ {
			if core.Has(i) {
				continue
			}
			outerEdges = append(outerEdges, h.Edge(i))
			outerBase = append(outerBase, stats[i])
			outerHists = append(outerHists, hist.hists[i])
		}
		if outerH, err := hypergraph.New(outerEdges); err == nil {
			if tree, ok := treeFor(outerH, outerBase); ok {
				outerEst := &HistogramEstimator{base: outerBase, hists: outerHists}
				outerCost, _ := outerEst.EstimateTree(tree)
				var outerLeaves int64
				for _, s := range outerBase {
					outerLeaves = satAdd(outerLeaves, s.Card)
				}
				gen := satAdd(coreZ, outerCost-outerLeaves)
				handicap := scale(coreInputs, trieCostFactor-1)
				ch.EstMixed = satAdd(satAdd(inputs, handicap), scale(gen, corr))
				mixedEstCost = satAdd(inputs, scale(gen, corr))
				mixedTree = tree
				haveMixed = true
			}
		}
	}

	note("est binary=%d wcoj=%d mixed=%d (core %s)", ch.EstBinary, ch.EstWCOJ, ch.EstMixed, core)

	// Pick the cheapest available comparable; ties prefer binary (no trie
	// build), then mixed over full wcoj (smaller sort).
	ch.Route = RouteBinary
	ch.Outer = binTree
	ch.EstCost = satAdd(inputs, scale(binGen, corr))
	best := ch.EstBinary
	if haveMixed && ch.EstMixed < best {
		best = ch.EstMixed
		ch.Route = RouteMixed
		ch.Outer = mixedTree
		ch.EstCost = mixedEstCost
	}
	if ch.EstWCOJ < best {
		ch.Route = RouteWCOJ
		ch.Outer = nil
		ch.EstCost = wcojEstCost
	}
	note("route=%s est=%d", ch.Route, ch.EstCost)
	return ch, nil
}
