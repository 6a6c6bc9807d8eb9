package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/workload"
)

// joinBy computes ⋈D under lim by the named route: an engine strategy
// (engine.Join), or "direct", the baseline of baselines in EX2, EX5 and EX6,
// which no engine strategy names — the relations joined left-deep in the
// scheme's canonical edge order (hypergraph.CanonicalOrder), not the order
// they were passed in, with no optimization, compiled by
// jointree.Tree.Program and run on the block kernels. Its report carries
// the result, the §2.3 cost and the tuples charged.
func joinBy(db *relation.Database, name string, lim govern.Limits) (*engine.Report, error) {
	if name != "direct" {
		s, err := engine.ParseStrategy(name)
		if err != nil {
			return nil, err
		}
		return engine.Join(db, engine.Options{Strategy: s, Limits: lim})
	}
	cdb, err := db.Restrict(hypergraph.OfScheme(db).CanonicalOrder())
	if err != nil {
		return nil, err
	}
	t := jointree.NewLeaf(0)
	for i := 1; i < cdb.Len(); i++ {
		t = jointree.NewJoin(t, jointree.NewLeaf(i))
	}
	g := govern.New(lim)
	res, err := t.Program(hypergraph.OfScheme(cdb)).ApplyGoverned(cdb, g)
	if err != nil {
		return nil, err
	}
	return &engine.Report{Result: res.Output, Cost: int64(res.Cost), Produced: g.Produced()}, nil
}

// StrategyComparison (experiment EX2) runs the engine's execution strategies
// head to head on three characteristic workloads: the paper's adversarial
// cycle (program wins; reduction useless), a dangling acyclic chain
// (reduction wins), and a benign random cyclic instance (everything is
// close). Cells are execution costs; "—" marks inapplicable strategies.
func StrategyComparison(seed int64) (*Table, error) {
	t := &Table{
		ID:    "EX2",
		Title: "Extension — engine strategies head to head (execution cost)",
		Columns: []string{
			"workload", "direct", "cpf-expression", "reduce-then-join", "program", "acyclic", "auto picks",
		},
	}
	type wl struct {
		name string
		db   *relation.Database
	}
	var workloads []wl

	spec, err := workload.Example3(10)
	if err != nil {
		return nil, err
	}
	ex3, err := spec.CycleDatabase()
	if err != nil {
		return nil, err
	}
	workloads = append(workloads, wl{"Example3(q=10), cyclic adversarial", ex3})

	chain, err := workload.DanglingChainDatabase(5, 30, 60)
	if err != nil {
		return nil, err
	}
	workloads = append(workloads, wl{"5-chain + dangling, acyclic", chain})

	cyc, err := workload.UniformCycle(5, 3, 5).CycleDatabase()
	if err != nil {
		return nil, err
	}
	workloads = append(workloads, wl{"uniform 5-cycle, benign", cyc})

	for _, w := range workloads {
		want := w.db.Join()
		cell := func(name string) string {
			rep, err := joinBy(w.db, name, govern.Limits{})
			if err != nil {
				return "—"
			}
			if !rep.Result.Equal(want) {
				return "WRONG"
			}
			return fmt.Sprint(rep.Cost)
		}
		auto, err := engine.Join(w.db, engine.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(w.name,
			cell("direct"),
			cell("cpf-expression"),
			cell("reduce-then-join"),
			cell("program"),
			cell("acyclic"),
			auto.Strategy.String(),
		)
	}
	t.AddNote("on the adversarial cycle the program route wins by a wide margin and reduce-then-join pays its reduction for nothing (pairwise-consistent data)")
	t.AddNote("auto picks the acyclic route on acyclic schemes and the program route on cyclic ones; on benign data all optimized routes are close")
	t.AddNote("dangling tuples on a chain mostly fail to join rather than multiply, so plain evaluation stays competitive there — reducers shine when dangling mass would otherwise fan out")
	_ = seed
	return t, nil
}
