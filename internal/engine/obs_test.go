package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Tests for the engine's tracing: span-tree structure and the reconciliation
// invariant that span tuple charges sum exactly to the report's produced
// count for explicit-strategy executions. (The auto ladder is excluded: a
// rung that blows its budget still charged tuples to its attempt span, so
// after a degradation the tree's total legitimately exceeds the winning
// rung's Produced.)

// TestTraceTupleTotalsMatchProduced is the differential test: over many
// random schemes — cyclic and acyclic, dense and sparse — every explicit
// strategy's span tree is well nested and charges exactly Report.Produced
// tuples across its spans.
func TestTraceTupleTotalsMatchProduced(t *testing.T) {
	rng := rand.New(rand.NewSource(1992))
	const trials = 60
	checked := 0
	for trial := 0; trial < trials; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(4), Attrs: 5, MaxArity: 3, Connected: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(12), 3)
		if err != nil {
			t.Fatal(err)
		}
		want := db.Join()
		for _, s := range strategiesFor(h) {
			tr := obs.NewTrace("diff")
			rep, err := Join(db, Options{Strategy: s, Trace: tr.Root})
			tr.Root.End()
			if err != nil {
				t.Fatalf("trial %d %s on %s: %v", trial, s, h, err)
			}
			if !rep.Result.Equal(want) {
				t.Fatalf("trial %d %s: wrong result on %s", trial, s, h)
			}
			if err := tr.Root.CheckNested(); err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, s, err, tr.Format())
			}
			if got := tr.Root.TupleTotal(); got != rep.Produced {
				t.Fatalf("trial %d %s on %s: spans charge %d tuples, report produced %d\n%s",
					trial, s, h, got, rep.Produced, tr.Format())
			}
			checked++
		}
	}
	if checked < trials*4 {
		t.Fatalf("only %d strategy executions checked across %d trials", checked, trials)
	}
}

// strategiesFor returns every explicit strategy applicable to the scheme.
func strategiesFor(h *hypergraph.Hypergraph) []Strategy {
	s := []Strategy{StrategyProgram, StrategyExpression, StrategyReduceThenJoin, StrategyDirect, StrategyWCOJ}
	if h.Acyclic() {
		s = append(s, StrategyAcyclic)
	}
	return s
}

// TestTraceShapePerStrategy pins the spans each strategy emits: the root
// holds a "derive plan" span (PlanFor) beside the "execute plan: X" attempt
// span (ExecutePlan), and the attempt holds the strategy's phases. The
// leapfrog plan is one multiway statement, whose trie and enumeration spans
// nest under its statement span.
func TestTraceShapePerStrategy(t *testing.T) {
	db := triangleDB(t)
	cases := []struct {
		strategy Strategy
		kinds    []obs.Kind
	}{
		{StrategyProgram, []obs.Kind{obs.KindExecute}},
		{StrategyExpression, []obs.Kind{obs.KindEval}},
		{StrategyReduceThenJoin, []obs.Kind{obs.KindReduce}},
		{StrategyDirect, []obs.Kind{obs.KindEval}},
		{StrategyWCOJ, []obs.Kind{obs.KindExecute}},
	}
	for _, c := range cases {
		tr := obs.NewTrace("shape")
		if _, err := Join(db, Options{Strategy: c.strategy, Trace: tr.Root}); err != nil {
			t.Fatalf("%s: %v", c.strategy, err)
		}
		tr.Root.End()
		top := tr.Root.Children()
		if len(top) != 2 || top[0].Kind() != obs.KindPlan || top[0].Name() != "derive plan" ||
			top[1].Kind() != obs.KindAttempt || top[1].Name() != "execute plan: "+c.strategy.String() {
			t.Fatalf("%s: root children are not [derive plan, execute plan: %s]\n%s", c.strategy, c.strategy, tr.Format())
		}
		var got []obs.Kind
		for _, ch := range top[1].Children() {
			got = append(got, ch.Kind())
		}
		if len(got) != len(c.kinds) {
			t.Fatalf("%s: attempt children %v, want %v\n%s", c.strategy, got, c.kinds, tr.Format())
		}
		for i := range got {
			if got[i] != c.kinds[i] {
				t.Fatalf("%s: attempt children %v, want %v", c.strategy, got, c.kinds)
			}
		}
	}

	tr := obs.NewTrace("leapfrog")
	if _, err := Join(db, Options{Strategy: StrategyWCOJ, Trace: tr.Root}); err != nil {
		t.Fatal(err)
	}
	tr.Root.End()
	stmts := tr.Root.Children()[1].Children()[0].Children()
	if len(stmts) != 1 || stmts[0].Kind() != obs.KindStmt {
		t.Fatalf("wcoj executes %d spans, want one statement\n%s", len(stmts), tr.Format())
	}
	var got []obs.Kind
	for _, ch := range stmts[0].Children() {
		got = append(got, ch.Kind())
	}
	if want := []obs.Kind{obs.KindTrie, obs.KindTrie, obs.KindTrie, obs.KindEnumerate}; !slices.Equal(got, want) {
		t.Fatalf("multiway statement children %v, want %v\n%s", got, want, tr.Format())
	}
}

// TestLadderTraceRecordsDegradation checks the auto ladder's trace keeps
// the failed rung's attempt span (marked failed) alongside the winner's.
func TestLadderTraceRecordsDegradation(t *testing.T) {
	db := example3DB(t, 4)
	tr := obs.NewTrace("ladder")
	// 200 tuples: too small for the program and the near-Cartesian adjacent
	// joins the expression rungs must pay on Example 3 at q=4, but enough
	// for the wcoj rung (inputs + the single closing tuple).
	rep, err := Join(db, Options{
		Strategy: StrategyAuto,
		Limits:   govern.Limits{MaxTuples: 200},
		Trace:    tr.Root,
	})
	tr.Root.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy == StrategyProgram {
		t.Skip("budget did not force a degradation")
	}
	var failed, total int
	tr.Root.Walk(func(sp *obs.Span, _ int) {
		if sp.Kind() != obs.KindAttempt {
			return
		}
		total++
		for _, n := range sp.Notes() {
			if len(n) >= 6 && n[:6] == "failed" {
				failed++
			}
		}
	})
	if total < 2 || failed < 1 {
		t.Fatalf("ladder trace: %d attempts, %d failed; want ≥2 attempts with ≥1 failure\n%s",
			total, failed, tr.Format())
	}
	if err := tr.Root.CheckNested(); err != nil {
		t.Fatal(err)
	}
}
