package engine

import (
	"fmt"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// Project computes π_out(⋈D): the project-join query over the database.
// On acyclic schemes it runs Yannakakis (polynomial in input + output); on
// cyclic schemes it optimizes a join expression and derives a program with
// a final projection (core.DeriveProjection). out must be a subset of the
// scheme's attributes; empty out answers the boolean query "is ⋈D
// nonempty" with a 0-ary relation.
//
// Options.Limits is enforced the same way as in Join, except there is no
// degradation ladder: a blown budget aborts the call with the typed error.
func Project(db *relation.Database, out relation.AttrSet, opts Options) (*Report, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	h := hypergraph.OfScheme(db)
	if !h.Attrs().ContainsAll(out) {
		return nil, fmt.Errorf("engine: projection attributes %s not all in scheme %s", out, h)
	}
	gov := newGovernor(opts)
	if _, err := gov.Begin("engine.strategy"); err != nil {
		return nil, err
	}
	if h.Acyclic() {
		res, cost, err := acyclic.YannakakisGoverned(db, out, gov)
		if err != nil {
			return nil, err
		}
		return &Report{
			Result:   res,
			Strategy: StrategyAcyclic,
			Cost:     int64(cost),
			Produced: gov.Produced(),
			Plan:     fmt.Sprintf("Yannakakis: full reducer, bottom-up join tree sweep, π_%s", out),
			Notes:    []string{"acyclic scheme: polynomial in input + output"},
		}, nil
	}
	if !h.Connected(h.Full()) {
		return nil, fmt.Errorf("engine: projection over a disconnected cyclic scheme is not supported")
	}
	// The program plan's search and CPF tree, in canonical edge order.
	plan, err := PlanFor(db, Options{Strategy: StrategyProgram, Budget: opts.Budget})
	if err != nil {
		return nil, err
	}
	cdb, ch, err := canonicalize(db, h)
	if err != nil {
		return nil, err
	}
	d, err := core.DeriveProjection(plan.Derivation.Tree, ch, out)
	if err != nil {
		return nil, err
	}
	res, err := d.Program.ApplyGoverned(cdb, gov)
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:   res.Output,
		Strategy: StrategyProgram,
		Cost:     int64(res.Cost),
		Produced: gov.Produced(),
		Plan:     "source expression: " + plan.Tree.String(ch) + "\n" + d.Program.String(),
		Notes:    []string{plan.Notes[0], "projection derived per Yannakakis' extension, appended to the Algorithm 2 program"},
	}, nil
}
