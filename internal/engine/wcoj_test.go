package engine

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/program"
	"repro/internal/workload"
)

// TestWCOJDifferentialRandomSchemes is the subsystem's correctness anchor:
// over 120 random schemes — cyclic ones included — the leapfrog-triejoin
// route must compute exactly the same relation as the paper's program route,
// join-expression evaluation, and the reference fold, and its governed
// accounting must balance (Produced = trie builds + output = Cost).
func TestWCOJDifferentialRandomSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cyclic := 0
	for trial := 0; trial < 120; trial++ {
		var h *hypergraph.Hypergraph
		var err error
		if trial%3 == 0 {
			// Random draws at these sizes are mostly acyclic; every third
			// trial uses a clique scheme — guaranteed cyclic — so both sides
			// of the GYO split are exercised heavily.
			h, err = workload.CliqueScheme(3 + rng.Intn(2))
		} else {
			h, err = workload.RandomScheme(rng, workload.RandomSchemeSpec{
				Relations: 2 + rng.Intn(4), Attrs: 5, MaxArity: 3, Connected: rng.Intn(2) == 0,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !h.Acyclic() {
			cyclic++
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(14), 3)
		if err != nil {
			t.Fatal(err)
		}
		want := db.Join()
		wrep, err := Join(db, Options{
			Strategy: StrategyWCOJ,
			Limits:   govern.Limits{MaxTuples: 1 << 40},
		})
		if err != nil {
			t.Fatalf("trial %d wcoj: %v on %s", trial, err, h)
		}
		if !wrep.Result.Equal(want) {
			t.Fatalf("trial %d: wcoj disagrees with the reference fold on %s", trial, h)
		}
		if wrep.Produced != wrep.Cost {
			t.Fatalf("trial %d: wcoj Produced %d != Cost %d (inputs + output) on %s",
				trial, wrep.Produced, wrep.Cost, h)
		}
		for _, s := range []Strategy{StrategyProgram, StrategyExpression} {
			rep, err := Join(db, Options{Strategy: s})
			if err != nil {
				t.Fatalf("trial %d %s: %v on %s", trial, s, err, h)
			}
			if !rep.Result.Equal(wrep.Result) {
				t.Fatalf("trial %d: %s disagrees with wcoj on %s", trial, s, h)
			}
		}
	}
	if cyclic < 20 {
		t.Fatalf("only %d/120 trials drew cyclic schemes; the differential needs both kinds", cyclic)
	}
}

// TestWCOJParallelGovernedAgrees: the engine-level parallel path (worker
// carving over the outermost variable) must not change the result or the
// governed charges.
func TestWCOJParallelGovernedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, err := workload.CliqueScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.RandomDatabase(rng, h, 80, 9)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Join(db, Options{Strategy: StrategyWCOJ, Limits: govern.Limits{MaxTuples: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Join(db, Options{
		Strategy: StrategyWCOJ,
		Workers:  4,
		Limits:   govern.Limits{MaxTuples: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Result.Equal(seq.Result) {
		t.Error("parallel wcoj changed the result")
	}
	if par.Produced != seq.Produced {
		t.Errorf("parallel Produced = %d, sequential = %d", par.Produced, seq.Produced)
	}
	if par.Parallelism != 4 {
		t.Errorf("Parallelism = %d, want 4", par.Parallelism)
	}
}

// TestWCOJPlanRoundTrip: PlanFor compiles the one multiway statement — its
// variable order included — once; ExecutePlan must reuse it against any
// edge order of the same scheme.
func TestWCOJPlanRoundTrip(t *testing.T) {
	db := example3DB(t, 6)
	plan, err := PlanFor(db, Options{Strategy: StrategyWCOJ})
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.Program.Stmts; plan.Strategy != StrategyWCOJ || len(s) != 1 || s[0].Op != program.OpMultiway ||
		len(s[0].Args) != db.Len() || len(s[0].Order) != hypergraph.OfScheme(db).Attrs().Len() {
		t.Fatalf("plan = %+v, want wcoj as one multiway statement over every relation and attribute", plan)
	}
	want := db.Join()
	rep, err := ExecutePlan(db, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(want) {
		t.Error("plan execution wrong")
	}
	// Reversed edge order, same fingerprint: the cached plan still serves it.
	perm := make([]int, db.Len())
	for i := range perm {
		perm[i] = db.Len() - 1 - i
	}
	rdb, err := db.Restrict(perm)
	if err != nil {
		t.Fatal(err)
	}
	if hypergraph.OfScheme(rdb).Fingerprint() != plan.Fingerprint {
		t.Fatal("reversed database changed fingerprint")
	}
	rrep, err := ExecutePlan(rdb, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Result.Equal(want) {
		t.Error("plan execution wrong on reordered edges")
	}
}

// TestConcurrentExecuteWCOJPlan hammers one shared WCOJ plan from many
// goroutines — sequential and parallel executions mixed — as the race
// detector's view of cached-plan sharing.
func TestConcurrentExecuteWCOJPlan(t *testing.T) {
	db := example3DB(t, 6)
	plan, err := PlanFor(db, Options{Strategy: StrategyWCOJ})
	if err != nil {
		t.Fatal(err)
	}
	want := db.Join()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := ExecutePlan(db, plan, Options{
				Workers: 1 + i%3,
				Limits:  govern.Limits{MaxTuples: 1 << 40},
			})
			if err != nil {
				errs[i] = err
				return
			}
			if !rep.Result.Equal(want) {
				t.Errorf("goroutine %d: wrong result", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
}

// TestWCOJBudgetDegradesInLadder: a budget below Σ inputs blows the trie
// build itself, so even the triejoin rung aborts and the explicit strategy
// fails hard.
func TestWCOJBudgetAbortsHard(t *testing.T) {
	db := example3DB(t, 10)
	_, err := Join(db, Options{
		Strategy: StrategyWCOJ,
		Limits:   govern.Limits{MaxTuples: 10},
	})
	if err == nil {
		t.Fatal("tiny budget accepted")
	}
}
