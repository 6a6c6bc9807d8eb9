package engine

import (
	"fmt"
	"strings"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
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
	// k-th non-core edge in ascending index order. Nil when the chooser's
	// DP was unavailable (execution falls back to bestTree search).
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
// when the caller's database is the sketches' order already).
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

// outerHypergraph builds the mixed route's outer scheme for display: the
// core's output attributes first, then the non-core edges.
func outerHypergraph(h *hypergraph.Hypergraph, core hypergraph.Mask) (*hypergraph.Hypergraph, error) {
	edges := []relation.AttrSet{h.AttrsOf(core)}
	for i := 0; i < h.Len(); i++ {
		if !core.Has(i) {
			edges = append(edges, h.Edge(i))
		}
	}
	return hypergraph.New(edges)
}

// joinHybrid plans and executes the hybrid route in one call (the direct
// Join path; the serving layer splits the same work across planHybrid and
// executeHybrid around the plan cache).
func joinHybrid(db *relation.Database, h *hypergraph.Hypergraph, opts Options, gov *govern.Governor) (*Report, error) {
	var hp *HybridPlan
	var notes []string
	if err := tracedPhase(gov, obs.KindPlan, "choose hybrid route", func() (err error) {
		hp, notes, err = planHybrid(db, h, nil, opts)
		return err
	}); err != nil {
		return nil, err
	}
	rep, err := executeHybrid(db, h, hp, opts, gov)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, notes...)
	return rep, nil
}

// executeHybrid runs a resolved hybrid route. cdb/ch must be in the edge
// order the plan was derived for.
func executeHybrid(cdb *relation.Database, ch *hypergraph.Hypergraph, hp *HybridPlan, opts Options, gov *govern.Governor) (*Report, error) {
	if hp == nil {
		return nil, fmt.Errorf("engine: hybrid plan missing")
	}
	switch hp.Route {
	case optimizer.RouteAcyclic:
		out, cost, plan, err := runAcyclic(cdb, ch, opts, gov)
		if err != nil {
			return nil, err
		}
		return &Report{
			Result:   out,
			Strategy: StrategyHybrid,
			Cost:     cost,
			Plan:     "hybrid route: acyclic\n" + plan,
		}, nil

	case optimizer.RouteBinary:
		tree := hp.Outer
		if tree == nil {
			// The chooser's DP was unavailable (too many edges); fall back to
			// the shared search the static rungs use.
			if err := tracedPhase(gov, obs.KindPlan, "optimize expression", func() (err error) {
				tree, _, err = bestTree(cdb, ch, opts.Budget, exprSpace(ch))
				return err
			}); err != nil {
				return nil, err
			}
		}
		out, cost, err := evalTree(tree, cdb, ch, "evaluate expression", gov, opts)
		if err != nil {
			return nil, err
		}
		return &Report{
			Result:   out,
			Strategy: StrategyHybrid,
			Cost:     cost,
			Plan:     "hybrid route: binary\n" + tree.String(ch),
			Notes:    []string{"columnar kernels: dictionary-encoded blocks, code-remapped batch joins"},
		}, nil

	case optimizer.RouteWCOJ:
		res, err := wcoj.JoinGoverned(cdb, hp.CoreOrder, gov, opts.workerCount())
		if err != nil {
			return nil, err
		}
		return &Report{
			Result:   res.Output,
			Strategy: StrategyHybrid,
			Cost:     int64(cdb.TotalTuples()) + int64(res.Output.Len()),
			Plan:     "hybrid route: wcoj\nleapfrog triejoin, variable order: " + strings.Join(hp.CoreOrder, " "),
			Notes:    wcojNotes(res, cdb),
		}, nil

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
		outerTree := hp.Outer
		if outerTree == nil {
			return nil, fmt.Errorf("engine: mixed hybrid route without an outer tree")
		}
		out, outerCost, err := evalTree(outerTree, outerDb, hypergraph.OfScheme(outerDb), "evaluate outer expression", gov, opts)
		if err != nil {
			return nil, err
		}
		// §2.3 total: the core's inputs plus the outer evaluation, whose
		// leaves already count the core's output (generated once) and the
		// non-core inputs.
		cost := int64(coreDb.TotalTuples()) + outerCost
		planStr := "hybrid route: mixed\ncore " + hp.Core.String() +
			" via leapfrog triejoin, variable order: " + strings.Join(hp.CoreOrder, " ")
		if outerH, err := outerHypergraph(ch, hp.Core); err == nil {
			planStr += "\nouter: " + outerTree.String(outerH)
		}
		notes := append(wcojNotes(res, coreDb),
			fmt.Sprintf("core output (%d tuples) joined to %d pendant edges through columnar kernels", res.Output.Len(), cdb.Len()-hp.Core.Count()))
		return &Report{
			Result:   out,
			Strategy: StrategyHybrid,
			Cost:     cost,
			Plan:     planStr,
			Notes:    notes,
		}, nil

	default:
		return nil, fmt.Errorf("engine: unknown hybrid route %q", hp.Route)
	}
}
