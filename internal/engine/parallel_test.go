package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Tests for Options.Workers: the engine must produce the same Report
// contents (result, cost, produced) at every worker count, annotate the
// parallelism it ran with, and stay race-clean when many goroutines execute
// one shared cached Plan in parallel.

func TestJoinWorkersMatchesSequential(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	spec, err := workload.Example3(20)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	// The huge budget never binds; it makes Produced the governed total.
	limits := govern.Limits{MaxTuples: 1 << 40}
	// The classical routes cost Θ(q⁵) on the Example 3 cycle, so it runs the
	// derived program only.
	for _, c := range []struct {
		name   string
		db     *relation.Database
		strats []Strategy
	}{
		{"triangle", triangleDB(t), []Strategy{StrategyProgram, StrategyExpression, StrategyReduceThenJoin}},
		{"Example3(q=20)", cycle, []Strategy{StrategyProgram}},
	} {
		name, db := c.name, c.db
		for _, strat := range c.strats {
			seq, err := Join(db, Options{Strategy: strat, Limits: limits})
			if err != nil {
				t.Fatalf("%s %v sequential: %v", name, strat, err)
			}
			if seq.Parallelism != 1 {
				t.Fatalf("%s %v sequential: Parallelism = %d, want 1", name, strat, seq.Parallelism)
			}
			for _, w := range []int{2, 4} {
				par, err := Join(db, Options{Strategy: strat, Workers: w, Limits: limits})
				if err != nil {
					t.Fatalf("%s %v %d workers: %v", name, strat, w, err)
				}
				if !par.Result.Equal(seq.Result) {
					t.Fatalf("%s %v %d workers: result differs from sequential", name, strat, w)
				}
				if par.Cost != seq.Cost || par.Produced != seq.Produced {
					t.Fatalf("%s %v %d workers: cost %d produced %d, sequential %d and %d",
						name, strat, w, par.Cost, par.Produced, seq.Cost, seq.Produced)
				}
				if par.Parallelism != w {
					t.Fatalf("%s %v %d workers: Parallelism = %d", name, strat, w, par.Parallelism)
				}
			}
		}
	}
}

// TestJoinWorkersAcyclicMatchesSequential: the full-reducer pipeline is a
// program too, so Workers applies to it — without moving its report.
func TestJoinWorkersAcyclicMatchesSequential(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	db := chainDB(t)
	rep, err := Join(db, Options{Strategy: StrategyAcyclic, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Join(db, Options{Strategy: StrategyAcyclic})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(seq.Result) || rep.Cost != seq.Cost || rep.Parallelism != 4 {
		t.Fatalf("acyclic route with 4 workers: cost %d parallelism %d, sequential cost %d (or results differ)",
			rep.Cost, rep.Parallelism, seq.Cost)
	}
}

func TestProgramReportStepsAndParallelism(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	db := triangleDB(t)
	rep, err := Join(db, Options{Strategy: StrategyProgram, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) == 0 {
		t.Fatal("program route: Report.Steps is empty")
	}
	total := 0
	for _, s := range rep.Steps {
		if s.Stmt == "" {
			t.Fatal("Report.Steps entry with empty statement")
		}
		total += s.Tuples
	}
	// Cost = inputs + statement heads; Steps holds exactly the heads.
	if want := int(rep.Cost) - db.TotalTuples(); total != want {
		t.Fatalf("Steps tuples sum %d, want cost-minus-inputs %d", total, want)
	}
	if rep.Parallelism != 4 {
		t.Fatalf("program route with 4 workers: Report.Parallelism %d", rep.Parallelism)
	}
}

// TestExecutePlanSharedPlanConcurrentWorkers is the cached-plan race test:
// one Plan, many goroutines, each executing with intra-query parallelism and
// its own governor. The race detector checks the plan is truly read-only;
// the assertions check every execution returns the full, identical answer.
func TestExecutePlanSharedPlanConcurrentWorkers(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	db := triangleDB(t)
	plan, err := PlanFor(db, Options{Strategy: StrategyProgram})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecutePlan(db, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := ExecutePlan(db, plan, Options{
				Workers: 1 + i%4,
				Limits:  govern.Limits{MaxTuples: 1 << 40},
			})
			if err == nil {
				switch {
				case !rep.Result.Equal(want.Result):
					err = errors.New("result differs")
				case rep.Cost != want.Cost:
					err = errors.New("cost differs")
				case rep.Parallelism != 1+i%4:
					err = errors.New("parallelism not reported")
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}

// TestExecutePlanWorkersBudgetAbort: a cached plan executed in parallel
// under a too-small budget aborts with the typed error and no report.
func TestExecutePlanWorkersBudgetAbort(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	db := triangleDB(t)
	plan, err := PlanFor(db, Options{Strategy: StrategyProgram})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := ExecutePlan(db, plan, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Produced == 0 {
		t.Skip("workload produced no governed tuples")
	}
	for _, w := range []int{1, 4} {
		rep, err := ExecutePlan(db, plan, Options{
			Workers: w,
			Limits:  govern.Limits{MaxTuples: probe.Produced - 1, CheckEvery: 1},
		})
		if !errors.Is(err, govern.ErrTupleBudget) {
			t.Fatalf("%d workers: want ErrTupleBudget, got %v", w, err)
		}
		if rep != nil {
			t.Fatalf("%d workers: abort returned a report", w)
		}
	}
}

func TestExplainMentionsParallelism(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	db := triangleDB(t)
	rep, err := Join(db, Options{Strategy: StrategyProgram, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Explain(); !strings.Contains(s, "parallelism: 3 workers") {
		t.Fatalf("Explain output missing parallelism line:\n%s", s)
	}
}
