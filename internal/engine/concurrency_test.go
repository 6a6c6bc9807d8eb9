package engine

import (
	"sync"
	"testing"

	"repro/internal/govern"
)

// TestConcurrentJoinSharedDatabase hammers one shared *relation.Database
// with concurrent Join calls across every strategy. Run under -race (CI
// does), it proves the read path builds its hash tables per call instead of
// lazily mutating shared relations — the property the serving layer's
// worker pool depends on.
func TestConcurrentJoinSharedDatabase(t *testing.T) {
	db := triangleDB(t)
	want, err := Join(db, Options{})
	if err != nil {
		t.Fatal(err)
	}

	strategies := []Strategy{
		StrategyAuto, StrategyProgram, StrategyExpression,
		StrategyReduceThenJoin, StrategyWCOJ,
	}
	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		strat := strategies[i%len(strategies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Join(db, Options{Strategy: strat})
			if err != nil {
				t.Errorf("%s: %v", strat, err)
				return
			}
			if !rep.Result.Equal(want.Result) {
				t.Errorf("%s: concurrent result != ⋈D", strat)
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentExecutePlanSharedPlan shares one derived plan across many
// goroutines, mixing governed and ungoverned executions — the exact shape
// of plan-cache hits in the serving layer. The plan must never be mutated
// by execution.
func TestConcurrentExecutePlanSharedPlan(t *testing.T) {
	db := triangleDB(t)
	plan, err := PlanFor(db, Options{Strategy: StrategyProgram})
	if err != nil {
		t.Fatal(err)
	}
	notesBefore := len(plan.Notes)
	want, err := Join(db, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		governed := i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := Options{Strategy: StrategyProgram}
			if governed {
				opts.Limits = govern.Limits{MaxTuples: 1 << 40}
			}
			rep, err := ExecutePlan(db, plan, opts)
			if err != nil {
				t.Errorf("ExecutePlan: %v", err)
				return
			}
			if !rep.Result.Equal(want.Result) {
				t.Error("shared-plan result != ⋈D")
			}
		}()
	}
	wg.Wait()
	if len(plan.Notes) != notesBefore {
		t.Errorf("execution mutated the shared plan's notes: %d → %d", notesBefore, len(plan.Notes))
	}
}
