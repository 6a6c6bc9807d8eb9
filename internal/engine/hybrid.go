package engine

import (
	"fmt"
	"strings"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// HybridPlan is StrategyHybrid's resolved route in canonical edge order.
// Pure routes reuse the static rungs' machinery wholesale — results, §2.3
// costs, and governor charges are identical to the corresponding static
// strategy. The mixed route is the hybrid shape proper: the cyclic core
// runs through the worst-case-optimal triejoin and its output joins the
// pendant edges as a binary tree program on the block executor.
type HybridPlan struct {
	// Route is one of optimizer.RouteAcyclic / RouteBinary / RouteWCOJ /
	// RouteMixed.
	Route string
	// Core is the canonical-order edge mask the triejoin covers (the full
	// scheme for RouteWCOJ, hypergraph.Core for RouteMixed; 0 otherwise).
	Core hypergraph.Mask
	// CoreOrder is the triejoin's variable order over Core.
	CoreOrder []string
	// Outer is the binary tree. For RouteBinary its leaves are scheme
	// edges; for RouteMixed leaf 0 is the core's output and leaf k>0 the
	// k-th non-core edge in ascending index order. When the chooser's DP
	// was unavailable, planHybrid searches the binary tree itself, so only
	// the wcoj and acyclic routes leave it nil.
	Outer *jointree.Tree
	// EstCost is the chooser's §2.3 estimate for the picked route — the
	// denominator of the served q-error feedback.
	EstCost int64
}

// sketchesFor aligns the caller-supplied sketches with db (permuting by
// perm when db was canonicalized: sketch for db position i is snap[perm[i]])
// or, when none were supplied, scans db once for throwaway sketches.
func sketchesFor(db *relation.Database, perm []int, opts Options) []*optimizer.Sketch {
	if opts.Sketches != nil {
		snap := opts.Sketches.Snapshot()
		if perm == nil && len(snap) == db.Len() {
			return snap
		}
		if perm != nil && len(snap) == len(perm) && len(perm) == db.Len() {
			out := make([]*optimizer.Sketch, len(perm))
			for i, p := range perm {
				out[i] = snap[p]
			}
			return out
		}
	}
	out := make([]*optimizer.Sketch, db.Len())
	for i := range out {
		out[i] = optimizer.BuildSketch(db.Relation(i))
	}
	return out
}

// planHybrid runs the statistics-driven chooser over cdb (already in
// canonical edge order, scheme ch) and fixes the route. perm maps canonical
// positions back to the original database order the sketches follow (nil
// when the caller's database is the sketches' order already). A binary
// route the chooser could not size (too many edges for its DP) gets its
// tree from the same search the expression plans use, here at plan time, so
// executing the cached plan never searches.
func planHybrid(cdb *relation.Database, ch *hypergraph.Hypergraph, perm []int, opts Options) (*HybridPlan, []string, error) {
	sks := sketchesFor(cdb, perm, opts)
	corr := 1.0
	if opts.Sketches != nil {
		corr = opts.Sketches.Correction(ch.Fingerprint())
	}
	choice, err := optimizer.ChooseHybrid(ch, sks, corr, opts.Hybrid)
	if err != nil {
		return nil, nil, err
	}
	hp := &HybridPlan{Route: choice.Route, EstCost: choice.EstCost, Outer: choice.Outer}
	switch choice.Route {
	case optimizer.RouteWCOJ:
		hp.Core = ch.Full()
		hp.CoreOrder = wcoj.VariableOrder(ch)
		hp.Outer = nil
	case optimizer.RouteMixed:
		hp.Core = choice.Core
		coreH, err := coreHypergraph(ch, choice.Core)
		if err != nil {
			return nil, nil, err
		}
		hp.CoreOrder = wcoj.VariableOrder(coreH)
	}
	notes := make([]string, 0, len(choice.Notes)+1)
	for _, n := range choice.Notes {
		notes = append(notes, "hybrid: "+n)
	}
	if hp.Route == optimizer.RouteBinary && hp.Outer == nil {
		tree, how, err := bestTree(cdb, ch, opts.Budget, exprSpace(ch))
		if err != nil {
			return nil, nil, err
		}
		hp.Outer = tree
		notes = append(notes, "hybrid: binary tree optimized by "+how)
	}
	return hp, notes, nil
}

// coreHypergraph builds the sub-scheme induced by the core mask.
func coreHypergraph(h *hypergraph.Hypergraph, core hypergraph.Mask) (*hypergraph.Hypergraph, error) {
	edges := make([]relation.AttrSet, 0, core.Count())
	for _, i := range core.Indexes() {
		edges = append(edges, h.Edge(i))
	}
	return hypergraph.New(edges)
}

// executeHybrid runs a resolved hybrid route. cdb/ch must be in the edge
// order the plan was derived for.
func executeHybrid(cdb *relation.Database, ch *hypergraph.Hypergraph, hp *HybridPlan, opts Options, gov *govern.Governor) (*Report, error) {
	if hp == nil {
		return nil, fmt.Errorf("engine: hybrid plan missing")
	}
	switch hp.Route {
	case optimizer.RouteAcyclic:
		rep, err := runAcyclic(cdb, ch, opts, gov)
		if err != nil {
			return nil, err
		}
		rep.Plan = "hybrid route: acyclic\n" + rep.Plan
		return rep, nil

	case optimizer.RouteBinary:
		rep, err := evalTree(hp.Outer, cdb, ch, "evaluate expression", gov, opts)
		if err != nil {
			return nil, err
		}
		rep.Plan = "hybrid route: binary\n" + rep.Plan
		rep.Notes = []string{"columnar kernels: dictionary-encoded blocks, code-remapped batch joins"}
		return rep, nil

	case optimizer.RouteWCOJ:
		rep, err := runWCOJ(cdb, hp.CoreOrder, gov, opts)
		if err != nil {
			return nil, err
		}
		rep.Plan = "hybrid route: wcoj\n" + rep.Plan
		return rep, nil

	case optimizer.RouteMixed:
		coreDb, err := cdb.Restrict(hp.Core.Indexes())
		if err != nil {
			return nil, err
		}
		res, err := wcoj.JoinGoverned(coreDb, hp.CoreOrder, gov, opts.workerCount())
		if err != nil {
			return nil, err
		}
		rels := []*relation.Relation{res.Output}
		for i := 0; i < cdb.Len(); i++ {
			if !hp.Core.Has(i) {
				rels = append(rels, cdb.Relation(i))
			}
		}
		outerDb, err := relation.NewDatabase(rels...)
		if err != nil {
			return nil, err
		}
		if hp.Outer == nil {
			return nil, fmt.Errorf("engine: mixed hybrid route without an outer tree")
		}
		rep, err := evalTree(hp.Outer, outerDb, hypergraph.OfScheme(outerDb), "evaluate outer expression", gov, opts)
		if err != nil {
			return nil, err
		}
		// §2.3 total: the core's inputs plus the outer evaluation, whose
		// leaves already count the core's output (generated once) and the
		// non-core inputs.
		rep.Cost += int64(coreDb.TotalTuples())
		rep.Plan = "hybrid route: mixed\ncore " + hp.Core.String() +
			" via leapfrog triejoin, variable order: " + strings.Join(hp.CoreOrder, " ") +
			"\nouter: " + rep.Plan
		rep.Notes = append(wcojNotes(res, coreDb),
			fmt.Sprintf("core output (%d tuples) joined to %d pendant edges through columnar kernels", res.Output.Len(), cdb.Len()-hp.Core.Count()))
		return rep, nil

	default:
		return nil, fmt.Errorf("engine: unknown hybrid route %q", hp.Route)
	}
}
