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
	strategies := []Strategy{StrategyProgram, StrategyWCOJ, StrategyExpression, StrategyHybrid}
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

// TestAdversarialQErrorAcceptance is the estimator's acceptance bound: on
// every corpus case the hybrid chooser's §2.3 cost estimate must be within
// the case's fixed q-error factor of the cost its chosen route actually
// charged. The corpus shapes are exactly the ones that wreck naive
// estimators — products the independence assumption gets right, skew it
// gets wrong without histograms — so a regression in the sketch/histogram
// path shows up as a blown bound here before it shows up as bad routing.
func TestAdversarialQErrorAcceptance(t *testing.T) {
	cases, err := workload.AdversarialCases()
	if err != nil {
		t.Fatal(err)
	}
	sawWCOJ := false
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			db, err := c.Database()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := PlanFor(db, Options{Strategy: StrategyHybrid})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Hybrid.EstCost <= 0 {
				t.Fatalf("hybrid estimate %d, want positive", plan.Hybrid.EstCost)
			}
			rep, err := ExecutePlan(db, plan, Options{Limits: govern.Limits{MaxTuples: c.Budget}})
			if err != nil {
				t.Fatal(err)
			}
			q := float64(plan.Hybrid.EstCost) / float64(rep.Cost)
			if q < 1 {
				q = 1 / q
			}
			if q > c.QErrorBound {
				t.Fatalf("q-error %.2f exceeds the case bound %.2f (route %s, est %d, actual %d)",
					q, c.QErrorBound, plan.Hybrid.Route, plan.Hybrid.EstCost, rep.Cost)
			}
			if plan.Hybrid.Route == "wcoj" || plan.Hybrid.Route == "mixed" {
				sawWCOJ = true
			}
		})
	}
	if !sawWCOJ {
		t.Error("no corpus case routed off the binary/acyclic path; the skewed shapes should")
	}
}
