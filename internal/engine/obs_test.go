package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/relation"
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
	s := []Strategy{StrategyProgram, StrategyExpression, StrategyReduceThenJoin, StrategyWCOJ}
	if h.Acyclic() {
		s = append(s, StrategyAcyclic)
	}
	return s
}

// TestTraceShapePerStrategy pins the spans each strategy emits: the root
// holds a "derive plan" span (PlanFor) beside the "execute plan: X" attempt
// span (ExecutePlan), and the attempt holds one "execute program" span, the
// executor's. The leapfrog plan is one multiway statement, whose trie and
// enumeration spans nest under its statement span.
func TestTraceShapePerStrategy(t *testing.T) {
	db := triangleDB(t)
	for _, s := range []Strategy{StrategyProgram, StrategyExpression, StrategyReduceThenJoin, StrategyWCOJ} {
		tr := obs.NewTrace("shape")
		if _, err := Join(db, Options{Strategy: s, Trace: tr.Root}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		tr.Root.End()
		top := tr.Root.Children()
		if len(top) != 2 || top[0].Kind() != obs.KindPlan || top[0].Name() != "derive plan" ||
			top[1].Kind() != obs.KindAttempt || top[1].Name() != "execute plan: "+s.String() {
			t.Fatalf("%s: root children are not [derive plan, execute plan: %s]\n%s", s, s, tr.Format())
		}
		if got := top[1].Children(); len(got) != 1 || got[0].Kind() != obs.KindExecute || got[0].Name() != "execute program" {
			t.Fatalf("%s: attempt children are not [execute program]\n%s", s, tr.Format())
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

	// Statements run in textual order at every worker count, even where
	// the program has independent statements — the acyclic pipeline's
	// downward semijoins interleave with joins that do not read them — so
	// Report.Steps and the statement spans follow the program, no two
	// statement spans overlap, and a budget crossed inside statement k
	// aborts there.
	defer relation.SetParallelThreshold(0)()
	star := starDB()
	plan, err := PlanFor(star, Options{Strategy: StrategyAcyclic})
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.Program.Len(); n != 15 {
		t.Fatalf("star pipeline has %d statements, want 15\n%s", n, plan.Program)
	}
	for _, w := range []int{1, 2, 4} {
		tr := obs.NewTrace("order")
		rep, err := ExecutePlan(star, plan, Options{Workers: w, Trace: tr.Root})
		tr.Root.End()
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		stmts := tr.Root.Children()[0].Children()[0].Children()
		if len(rep.Steps) != len(plan.Program.Stmts) || len(stmts) != len(plan.Program.Stmts) {
			t.Fatalf("%d workers: %d steps and %d statement spans for %d statements\n%s",
				w, len(rep.Steps), len(stmts), plan.Program.Len(), tr.Format())
		}
		cum := make([]int64, len(rep.Steps)+1)
		for i, s := range plan.Program.Stmts {
			if rep.Steps[i].Stmt != s.String() || stmts[i].Name() != s.String() {
				t.Fatalf("%d workers: position %d holds step %q and span %q, want %q\n%s",
					w, i+1, rep.Steps[i].Stmt, stmts[i].Name(), s, tr.Format())
			}
			if i > 0 && stmts[i].Start().Before(stmts[i-1].Start().Add(stmts[i-1].Wall())) {
				t.Fatalf("%d workers: statement %d started before statement %d ended", w, i+1, i)
			}
			cum[i+1] = cum[i] + int64(rep.Steps[i].Tuples)
		}
		if rep.Produced != cum[len(rep.Steps)] {
			t.Fatalf("%d workers: produced %d, statement heads sum to %d", w, rep.Produced, cum[len(rep.Steps)])
		}
		for k := 1; k <= len(rep.Steps); k++ {
			budget := cum[k] - 1
			if budget < 1 || budget < cum[k-1] {
				continue // statement k charges nothing, or a budget of 0 means unlimited
			}
			_, err := ExecutePlan(star, plan, Options{Workers: w, Limits: govern.Limits{MaxTuples: budget, CheckEvery: 1}})
			want := fmt.Sprintf("program: statement %d (%s): ", k, plan.Program.Stmts[k-1])
			if !errors.Is(err, govern.ErrTupleBudget) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%d workers, budget %d: got %v, want ErrTupleBudget in %q", w, budget, err, want)
			}
		}
	}
}

// starDB is six binary relations sharing A — an acyclic scheme whose
// pipeline has 15 statements — with dangling tuples on every side, so the
// full reducer's semijoins remove something.
func starDB() *relation.Database {
	rels := make([]*relation.Relation, 6)
	for r := range rels {
		rels[r] = relation.New(relation.MustSchema("A", string(rune('B'+r))))
		for i := int64(0); i < 8; i++ {
			rels[r].MustInsert(relation.Ints((i*int64(r+3))%(5+int64(r%3)), i%2))
		}
	}
	return relation.MustDatabase(rels...)
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
