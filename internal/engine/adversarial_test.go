package engine

import (
	"testing"

	"repro/internal/govern"
	"repro/internal/workload"
)

// TestAdversarialGauntlet runs the checked-in cartesian-explosion corpus
// through every execution strategy under each case's own tuple budget: all
// strategies must finish within budget (the shapes are sized to be
// survivable — a planner that mishandles them blows the bound and fails
// here, loudly, instead of hanging), and all must agree tuple-for-tuple.
func TestAdversarialGauntlet(t *testing.T) {
	cases, err := workload.AdversarialCases()
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{StrategyProgram, StrategyWCOJ, StrategyExpression, StrategyAuto}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			db, err := c.Database()
			if err != nil {
				t.Fatal(err)
			}
			want := db.Join()
			for _, s := range strategies {
				rep, err := Join(db, Options{Strategy: s, Limits: govern.Limits{MaxTuples: c.Budget}})
				if err != nil {
					t.Fatalf("%s under budget %d: %v", s, c.Budget, err)
				}
				if !rep.Result.Equal(want) {
					t.Fatalf("%s diverges from the reference fold (%d tuples, want %d)",
						s, rep.Result.Len(), want.Len())
				}
				if rep.Produced > c.Budget {
					t.Fatalf("%s charged %d over the case budget %d", s, rep.Produced, c.Budget)
				}
			}
		})
	}
}
