package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/workload"
)

// AdversarialGauntlet (experiment EX13) drives the checked-in
// cartesian-explosion corpus (internal/workload/testdata/adversarial)
// through every strategy under each case's own tuple budget: unfiltered
// products, late filters, star fan-outs, self-joins, unrelated predicates,
// and skewed cycles. Every strategy must finish within the case budget and
// agree with the reference fold.
func AdversarialGauntlet() (*Table, error) {
	cases, err := workload.AdversarialCases()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "EX13",
		Title:   "Extension — adversarial gauntlet: cartesian-explosion corpus under per-case budgets",
		Columns: []string{"case", "scheme", "inputs", "result", "budget", "max charge"},
	}
	strategies := []engine.Strategy{engine.StrategyProgram, engine.StrategyWCOJ, engine.StrategyExpression}
	for _, c := range cases {
		db, err := c.Database()
		if err != nil {
			return nil, err
		}
		want := db.Join()
		var maxCharge int64
		for _, s := range strategies {
			rep, err := engine.Join(db, engine.Options{Strategy: s, Limits: govern.Limits{MaxTuples: c.Budget}})
			if err != nil {
				return nil, fmt.Errorf("EX13 %s: %s under budget %d: %w", c.Name, s, c.Budget, err)
			}
			if !rep.Result.Equal(want) {
				return nil, fmt.Errorf("EX13 %s: %s diverges from the reference fold", c.Name, s)
			}
			if rep.Produced > maxCharge {
				maxCharge = rep.Produced
			}
		}
		t.AddRow(c.Name, c.Scheme, db.TotalTuples(), want.Len(), c.Budget, maxCharge)
	}
	t.AddNote("shapes follow the classic cartesian-explosion stress suites: unfiltered joins, filters after the product, star fan-out, self-joins on duplicated data, unrelated predicates, skewed cycles")
	t.AddNote("every strategy must finish inside the case budget (a planner that mishandles the shape fails loudly instead of hanging) and agree tuple-for-tuple")
	return t, nil
}
