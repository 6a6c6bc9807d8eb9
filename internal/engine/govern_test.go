package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine/failpoint"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/workload"
)

// ladderBudget sits below the program route's produced tuples (7 115 at
// q=10), so the first rung of the cyclic ladder aborts, and far below the
// classical routes' (25 503 for the CPF expression, 27 931 for
// reduce-then-join), so both expression-shaped rungs behind it abort too. The leapfrog-triejoin rung charges only the
// trie builds plus the output (1 215 tuples here — no pairwise intermediate
// exists to charge), so it is the first rung that fits.
const ladderBudget = 5000

// TestExplicitStrategiesAbortHard runs each explicit classical strategy
// under ladderBudget: each aborts with a *govern.LimitError naming the
// budget, within one probe row of it (the build side here has at most
// q²=100 matches per probe row), and returns no report.
func TestExplicitStrategiesAbortHard(t *testing.T) {
	db := example3DB(t, 10)
	for _, s := range []Strategy{StrategyExpression, StrategyReduceThenJoin} {
		rep, err := Join(db, Options{Strategy: s, Limits: govern.Limits{MaxTuples: ladderBudget}})
		if rep != nil || !errors.Is(err, govern.ErrTupleBudget) {
			t.Fatalf("%s: want hard ErrTupleBudget abort, got rep=%v err=%v", s, rep, err)
		}
		var le *govern.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("%s: want a *govern.LimitError in the chain, got %v", s, err)
		}
		if le.Max != ladderBudget {
			t.Errorf("%s: LimitError.Max = %d, want %d", s, le.Max, ladderBudget)
		}
		if le.Produced > ladderBudget+200 {
			t.Errorf("%s: overshoot: produced %d against budget %d", s, le.Produced, ladderBudget)
		}
	}
}

// TestDirectAbortsOnTupleBudget runs the unoptimized baseline the
// experiments call "direct" — the relations joined left-deep in canonical
// edge order, compiled by jointree.Tree.Program — on the governed program
// executor under ladderBudget. Its first join alone is 50k tuples, so it
// aborts with a *govern.LimitError naming the budget, within one probe row
// of it (at most q²=100 matches per probe row here).
func TestDirectAbortsOnTupleBudget(t *testing.T) {
	db := example3DB(t, 10)
	cdb, err := db.Restrict(hypergraph.OfScheme(db).CanonicalOrder())
	if err != nil {
		t.Fatal(err)
	}
	tree := jointree.NewLeaf(0)
	for i := 1; i < cdb.Len(); i++ {
		tree = jointree.NewJoin(tree, jointree.NewLeaf(i))
	}
	g := govern.New(govern.Limits{MaxTuples: ladderBudget})
	res, err := tree.Program(hypergraph.OfScheme(cdb)).ApplyGoverned(cdb, g)
	if res != nil {
		t.Fatalf("got a result despite the abort: %d tuples", res.Output.Len())
	}
	if !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("want ErrTupleBudget, got %v", err)
	}
	var le *govern.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want a *govern.LimitError in the chain, got %v", err)
	}
	if le.Max != ladderBudget {
		t.Errorf("LimitError.Max = %d, want %d", le.Max, ladderBudget)
	}
	if le.Produced > ladderBudget+200 {
		t.Errorf("overshoot: produced %d against budget %d", le.Produced, ladderBudget)
	}
}

func TestAutoLadderDegradesToWCOJ(t *testing.T) {
	db := example3DB(t, 10)
	want := db.Join()
	rep, err := Join(db, Options{Limits: govern.Limits{MaxTuples: ladderBudget}})
	if err != nil {
		t.Fatalf("ladder failed: %v", err)
	}
	if rep.Strategy != StrategyWCOJ {
		t.Errorf("ladder landed on %s, want %s", rep.Strategy, StrategyWCOJ)
	}
	if !rep.Result.Equal(want) {
		t.Errorf("wrong result: %d tuples, want %d", rep.Result.Len(), want.Len())
	}
	if rep.Produced == 0 || rep.Produced > ladderBudget {
		t.Errorf("Produced = %d, want within (0, %d]", rep.Produced, ladderBudget)
	}
	// The fallback chain must name the three abandoned rungs, in order.
	falls := degradationNotes(rep.Notes)
	if len(falls) != 3 {
		t.Fatalf("want 3 degradation notes, got %d: %q", len(falls), rep.Notes)
	}
	for i, s := range []Strategy{StrategyProgram, StrategyExpression, StrategyReduceThenJoin} {
		if !strings.HasPrefix(falls[i], "degradation: "+s.String()+" aborted") {
			t.Errorf("fallback chain out of order: %q", falls)
		}
	}
}

// degradationNotes returns the ladder's fallback notes among notes.
func degradationNotes(notes []string) []string {
	var falls []string
	for _, n := range notes {
		if strings.HasPrefix(n, "degradation:") {
			falls = append(falls, n)
		}
	}
	return falls
}

// hubTriangleDB is a triangle R(A,B), S(B,C), T(C,A) with a 1-tuple join,
// (A,B,C) = (1,0,1). R holds a hub B = 0 and S fans out on it, so R ⋈ S
// is 64 tuples, of which T closes one. Every other row dangles: it matches
// one neighbour but not the other, and the three pairs' dangling rows meet
// on A = 1 or C = 1, so S ⋈ T and T ⋈ R are large too. Semijoins strip
// every relation to its one joining row, so the CPF expressions pay for a
// pairwise join the reduction never builds.
func hubTriangleDB() *relation.Database {
	r := relation.New(relation.MustSchema("A", "B"))
	s := relation.New(relation.MustSchema("B", "C"))
	tr := relation.New(relation.MustSchema("C", "A"))
	for i := int64(1); i <= 8; i++ {
		r.MustInsert(relation.Ints(i, 0)) // the hub: only A = 1 joins T
		s.MustInsert(relation.Ints(0, i)) // the fan-out: only C = 1 joins T
	}
	for i := int64(1); i <= 9; i++ {
		r.MustInsert(relation.Ints(1, 300+i)) // joins T, no S partner
	}
	for i := int64(1); i <= 6; i++ {
		s.MustInsert(relation.Ints(200+i, 1))  // joins T, no R partner
		tr.MustInsert(relation.Ints(1, 100+i)) // joins S, no R partner
	}
	for i := int64(1); i <= 10; i++ {
		tr.MustInsert(relation.Ints(400+i, 1)) // joins R, no S partner
	}
	tr.MustInsert(relation.Ints(1, 1)) // closes the one triangle
	return relation.MustDatabase(r, s, tr)
}

// TestAutoLadderLandsOnReduceThenJoin pins the rescue reduce-then-join
// exists for. On hubTriangleDB the rungs charge 58 tuples (program), 50
// (cpf-expression), 34 (reduce-then-join) and 49 (wcoj: the 48 inputs'
// tries plus the output). Under a budget of 40 only reduce-then-join fits:
// auto falls through two rungs and lands there, and wcoj alone aborts.
func TestAutoLadderLandsOnReduceThenJoin(t *testing.T) {
	db := hubTriangleDB()
	const budget = 40
	rep, err := Join(db, Options{Limits: govern.Limits{MaxTuples: budget}})
	if err != nil {
		t.Fatalf("ladder failed: %v", err)
	}
	if rep.Strategy != StrategyReduceThenJoin {
		t.Errorf("ladder landed on %s, want %s", rep.Strategy, StrategyReduceThenJoin)
	}
	if want := db.Join(); want.Len() != 1 || !rep.Result.Equal(want) {
		t.Errorf("result %d tuples, want ⋈D's %d", rep.Result.Len(), want.Len())
	}
	falls := degradationNotes(rep.Notes)
	if len(falls) != 2 ||
		!strings.HasPrefix(falls[0], "degradation: "+StrategyProgram.String()+" aborted") ||
		!strings.HasPrefix(falls[1], "degradation: "+StrategyExpression.String()+" aborted") {
		t.Errorf("fallback chain %q, want program then cpf-expression", falls)
	}
	if _, err := Join(db, Options{Strategy: StrategyWCOJ, Limits: govern.Limits{MaxTuples: budget}}); !errors.Is(err, govern.ErrTupleBudget) {
		t.Errorf("wcoj under %d tuples: want ErrTupleBudget, got %v", budget, err)
	}
}

// TestAutoLadderDegradesToProgram forces the acyclic pipeline, the first
// rung of an acyclic scheme's ladder, to blow its budget (a failpoint
// injects the abort on the first attempt; the pipeline's charge never
// exceeds the program's naturally) and checks the ladder lands on the
// paper's program route with one fallback note.
func TestAutoLadderDegradesToProgram(t *testing.T) {
	defer failpoint.Reset()
	db, err := workload.DanglingChainDatabase(4, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Enable("engine.strategy", 1, govern.ErrTupleBudget)
	rep, err := Join(db, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
	if err != nil {
		t.Fatalf("ladder failed: %v", err)
	}
	if rep.Strategy != StrategyProgram {
		t.Errorf("ladder landed on %s, want %s", rep.Strategy, StrategyProgram)
	}
	if !rep.Result.Equal(db.Join()) {
		t.Error("wrong result")
	}
	falls := degradationNotes(rep.Notes)
	if len(falls) != 1 || !strings.HasPrefix(falls[0], "degradation: acyclic aborted") {
		t.Errorf("fallback chain %q, want one note for the acyclic rung", falls)
	}
}

func TestAutoWithAmpleBudgetSkipsLadderNoise(t *testing.T) {
	db := example3DB(t, 6)
	rep, err := Join(db, Options{Limits: govern.Limits{MaxTuples: 10_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "degradation:") {
			t.Errorf("unexpected degradation note with an ample budget: %q", n)
		}
	}
	if rep.Strategy != StrategyProgram {
		// First rung of the cyclic ladder should win outright.
		t.Errorf("ample budget landed on %s, want %s", rep.Strategy, StrategyProgram)
	}
}

func TestAutoLadderExhausted(t *testing.T) {
	db := example3DB(t, 10)
	// Below even the triejoin's 1 215 produced tuples: every rung blows.
	_, err := Join(db, Options{Limits: govern.Limits{MaxTuples: 100}})
	if !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("want ErrTupleBudget after exhausting the ladder, got %v", err)
	}
	if !strings.Contains(err.Error(), "ladder exhausted") {
		t.Errorf("error does not mention the exhausted ladder: %v", err)
	}
}

func TestAcyclicLadder(t *testing.T) {
	db, err := workload.DanglingChainDatabase(4, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := hypergraph.OfScheme(db)
	if ls := DegradationLadder(StrategyAuto, h.Acyclic()); len(ls) != 2 ||
		ls[0] != StrategyAcyclic || ls[1] != StrategyProgram {
		t.Errorf("acyclic ladder = %v", ls)
	}
	if ls := DegradationLadder(StrategyAuto, false); len(ls) != 4 || ls[0] != StrategyProgram ||
		ls[1] != StrategyExpression || ls[2] != StrategyReduceThenJoin || ls[3] != StrategyWCOJ {
		t.Errorf("cyclic ladder = %v", ls)
	}
	if ls := DegradationLadder(StrategyExpression, false); len(ls) != 1 || ls[0] != StrategyExpression {
		t.Errorf("explicit strategy ladder = %v, want one rung", ls)
	}
	// A generous budget: the pipeline wins outright.
	rep, err := Join(db, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyAcyclic {
		t.Errorf("governed auto on acyclic scheme ran %s", rep.Strategy)
	}
	if !rep.Result.Equal(db.Join()) {
		t.Error("wrong result")
	}
}

func TestCancellationIsFinalNotDegraded(t *testing.T) {
	db := example3DB(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the very first Begin must abort
	for _, s := range []Strategy{StrategyAuto, StrategyReduceThenJoin} {
		rep, err := Join(db, Options{Strategy: s, Limits: govern.Limits{Context: ctx}})
		if rep != nil || !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("%s: want ErrCanceled with no report, got rep=%v err=%v", s, rep, err)
		}
		if strings.Contains(err.Error(), "ladder") {
			t.Errorf("%s: cancellation should not walk the ladder: %v", s, err)
		}
	}
}

func TestDeadlineAbortsJoin(t *testing.T) {
	db := example3DB(t, 10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Join(db, Options{Strategy: StrategyProgram, Limits: govern.Limits{Context: ctx}})
	if !errors.Is(err, govern.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

// TestFailpointCancelMidExecution arms a failpoint that cancels the context
// as a side effect on the Nth relation.Join, proving a cancellation raised
// mid-execution is observed within one operator step: the very next
// governor poll aborts with ErrCanceled before another operator runs.
func TestFailpointCancelMidExecution(t *testing.T) {
	defer failpoint.Reset()
	db := example3DB(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	failpoint.EnableFunc("relation.Join", 2, func() error {
		cancel() // simulate an external cancellation arriving mid-query
		return nil
	})
	rep, err := Join(db, Options{
		Strategy: StrategyExpression, // 4 relations: 3 joins if run to completion
		Limits:   govern.Limits{Context: ctx},
	})
	if rep != nil {
		t.Fatalf("got a report despite cancellation: %+v", rep)
	}
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("abort should also match context.Canceled, got %v", err)
	}
}

func TestInjectedFaultIsNotDegraded(t *testing.T) {
	defer failpoint.Reset()
	db := example3DB(t, 6)
	boom := errors.New("disk on fire")
	failpoint.Enable("program.Stmt", 3, boom)
	// Auto walks the ladder from the program rung; an injected fault there
	// must surface as-is rather than being retried on the next rung.
	_, err := Join(db, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
	if !errors.Is(err, boom) {
		t.Fatalf("want the injected fault, got %v", err)
	}
	if len(failpoint.Active()) != 0 {
		t.Error("failpoint should disarm after firing")
	}
}

func TestLadderDoesNotRetryInjectedFault(t *testing.T) {
	defer failpoint.Reset()
	db := example3DB(t, 6)
	boom := errors.New("injected")
	// Fires on the very first strategy attempt; the ladder must stop there.
	failpoint.Enable("engine.strategy", 1, boom)
	_, err := Join(db, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
	if !errors.Is(err, boom) {
		t.Fatalf("want the injected fault unretried, got %v", err)
	}
	if strings.Contains(err.Error(), "ladder") {
		t.Errorf("injected fault should not be degraded: %v", err)
	}
}

func TestReportProducedMatchesWork(t *testing.T) {
	db := example3DB(t, 6)
	rep, err := Join(db, Options{
		Strategy: StrategyProgram,
		Limits:   govern.Limits{MaxTuples: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Produced counts generated tuples only; Cost additionally counts the
	// inputs, so cost - inputs = produced for a single uninterrupted attempt.
	wantProduced := rep.Cost - int64(db.TotalTuples())
	if rep.Produced != wantProduced {
		t.Errorf("Produced = %d, want cost-inputs = %d", rep.Produced, wantProduced)
	}
}

// TestExpressionAbortBoundaryMatchesEval pins the cpf-expression rung's abort
// boundary against the tuple-map reference: the plan's tree, evaluated by
// jointree.Tree.Eval, generates exactly the tuples cpf-expression charges
// (cost and Produced agree at every worker count), a budget of that many
// passes with CheckEvery 1, and one tuple less aborts with ErrTupleBudget
// and no report.
func TestExpressionAbortBoundaryMatchesEval(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(2030))
	tried := 0
	for trial := 0; tried < 25; trial++ {
		if trial > 500 {
			t.Fatal("could not generate enough schemes with nonzero charges")
		}
		h, err := workload.CliqueScheme(3)
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 4+rng.Intn(12), 3)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanFor(db, Options{Strategy: StrategyExpression})
		if err != nil {
			t.Fatal(err)
		}
		cdb, _, err := canonicalize(db, hypergraph.OfScheme(db))
		if err != nil {
			t.Fatal(err)
		}
		_, evalCost := plan.Tree.Eval(cdb)
		total := int64(evalCost - db.TotalTuples())
		if total == 0 {
			continue
		}
		tried++
		for _, w := range []int{1, 4} {
			rep, err := ExecutePlan(db, plan, Options{Workers: w, Limits: govern.Limits{MaxTuples: total, CheckEvery: 1}})
			if err != nil {
				t.Fatalf("trial %d, %d workers: budget == generated total must succeed, got %v", trial, w, err)
			}
			if rep.Cost != int64(evalCost) || rep.Produced != total {
				t.Fatalf("trial %d, %d workers: cost %d charged %d, tuple-map Eval cost %d generated %d",
					trial, w, rep.Cost, rep.Produced, evalCost, total)
			}
			rep, err = ExecutePlan(db, plan, Options{Workers: w, Limits: govern.Limits{MaxTuples: total - 1, CheckEvery: 1}})
			if !errors.Is(err, govern.ErrTupleBudget) || rep != nil {
				t.Fatalf("trial %d, %d workers: budget == total-1 gave %v, %v; want ErrTupleBudget and no report", trial, w, rep, err)
			}
		}
	}
}
