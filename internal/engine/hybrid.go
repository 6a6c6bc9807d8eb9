package engine

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// HybridPlan is StrategyHybrid's decision as the serving layer reads it:
// the route label and the chooser's estimate. The route itself is compiled
// into Plan.Program — the acyclic pipeline, a binary tree's joins, one
// multiway join, or (the hybrid shape proper) a multiway join on the cyclic
// core followed by the outer tree's joins — and executes like every other
// program, charging exactly what the matching static plan charges.
type HybridPlan struct {
	// Route is one of optimizer.RouteAcyclic / RouteBinary / RouteWCOJ /
	// RouteMixed: the joind_optimizer_hybrid_routes_total label.
	Route string
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
// canonical edge order, scheme ch), records the route in p.Hybrid and
// compiles it into p.Program, returning the plan text's header. perm maps
// canonical positions back to the original database order the sketches
// follow (nil when the caller's database is the sketches' order already). A
// binary route the chooser could not size (too many edges for its DP) gets
// its tree from the same search the expression plans use, here at plan time,
// so executing the cached plan never searches.
func (p *Plan) planHybrid(cdb *relation.Database, ch *hypergraph.Hypergraph, perm []int, opts Options) (string, error) {
	sks := sketchesFor(cdb, perm, opts)
	corr := 1.0
	if opts.Sketches != nil {
		corr = opts.Sketches.Correction(ch.Fingerprint())
	}
	choice, err := optimizer.ChooseHybrid(ch, sks, corr)
	if err != nil {
		return "", err
	}
	p.Hybrid = &HybridPlan{Route: choice.Route, EstCost: choice.EstCost}
	header := "hybrid route: " + choice.Route + "\n"
	var notes, searched []string
	switch choice.Route {
	case optimizer.RouteAcyclic:
		body, err := p.compileAcyclic(ch)
		if err != nil {
			return "", err
		}
		header += body
	case optimizer.RouteBinary:
		tree := choice.Outer
		if tree == nil {
			var how string
			if tree, how, err = bestTree(cdb, ch, opts.Budget, exprSpace(ch)); err != nil {
				return "", err
			}
			searched = append(searched, "hybrid: binary tree optimized by "+how)
		}
		p.Program, p.phase = tree.Program(ch), obs.KindEval
		header += tree.String(ch) + "\n"
		notes = append(notes, "columnar kernels: dictionary-encoded blocks, code-remapped batch joins")
	case optimizer.RouteWCOJ:
		p.Program, err = leapfrogProgram(ch, ch.Full(), nil)
	case optimizer.RouteMixed:
		p.Program, err = leapfrogProgram(ch, choice.Core, choice.Outer)
		notes = append(notes, fmt.Sprintf("core output joined to %d pendant edges through columnar kernels", ch.Len()-choice.Core.Count()))
	}
	if err != nil {
		return "", err
	}
	for _, n := range choice.Notes {
		notes = append(notes, "hybrid: "+n)
	}
	p.Notes = append(append(p.Notes, notes...), searched...)
	return header, nil
}

// coreHypergraph builds the sub-scheme induced by the core mask.
func coreHypergraph(h *hypergraph.Hypergraph, core hypergraph.Mask) (*hypergraph.Hypergraph, error) {
	edges := make([]relation.AttrSet, 0, core.Count())
	for _, i := range core.Indexes() {
		edges = append(edges, h.Edge(i))
	}
	return hypergraph.New(edges)
}
