package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
)

// triangleDB builds the canonical cyclic instance {AB, BC, CA}.
func triangleDB(t *testing.T) *relation.Database {
	t.Helper()
	db, err := workload.TriangleSpec{Nodes: 12, Edges: 40}.TriangleDatabase(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// chainDB builds a small acyclic instance AB ⋈ BC ⋈ CD.
func chainDB(t *testing.T) *relation.Database {
	t.Helper()
	mk := func(a, b string) *relation.Relation {
		r := relation.New(relation.MustSchema(a, b))
		for i := int64(0); i < 20; i++ {
			r.MustInsert(relation.Ints(i%5, i%7))
		}
		return r
	}
	return relation.MustDatabase(mk("A", "B"), mk("B", "C"), mk("C", "D"))
}

// identityCase is one database of the Join ≡ plan-route identity check,
// with the tuple budget both routes run under.
type identityCase struct {
	name   string
	db     *relation.Database
	budget int64
}

// differentialCases is the 120-scheme random case set: every third scheme a
// 3- or 4-clique (guaranteed cyclic), the rest random connected schemes,
// each over a small random instance (seed 1992).
func differentialCases(t *testing.T) []identityCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1992))
	cases := make([]identityCase, 0, 120)
	for i := 0; i < 120; i++ {
		var h *hypergraph.Hypergraph
		var err error
		if i%3 == 0 {
			h, err = workload.CliqueScheme(3 + rng.Intn(2))
		} else {
			h, err = workload.RandomScheme(rng, workload.RandomSchemeSpec{
				Relations: 2 + rng.Intn(4), Attrs: 5, MaxArity: 3, Connected: true,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(14), 3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, identityCase{fmt.Sprintf("random%03d", i), db, 1 << 40})
	}
	return cases
}

// cloneDB copies db's relations, so a run sees none of the encodings an
// earlier run left resident on them.
func cloneDB(t *testing.T, db *relation.Database) *relation.Database {
	t.Helper()
	rels := make([]*relation.Relation, db.Len())
	for i := range rels {
		rels[i] = db.Relation(i).Clone()
	}
	out, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlanForExecutePlanMatchesJoin checks that Join is the plan route: for
// every applicable strategy, at one and two workers, Join and
// ExecutePlan(PlanFor(…)) return the same result, cost, produced count,
// plan and notes — or the same abort — over the triangle, the 120-scheme
// differential set, Example 3 at q = 2…14 and the adversarial corpus. Both
// sides run on fresh copies of the relations and under the same tuple
// budget (2M tuples outside the corpus).
func TestPlanForExecutePlanMatchesJoin(t *testing.T) {
	cases := append([]identityCase{{"triangle", triangleDB(t), 1 << 21}}, differentialCases(t)...)
	for q := int64(2); q <= 14; q += 2 {
		cases = append(cases, identityCase{fmt.Sprintf("example3_q%d", q), example3DB(t, q), 1 << 21})
	}
	adv, err := workload.AdversarialCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range adv {
		db, err := c.Database()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, identityCase{c.Name, db, c.Budget})
	}
	checked := 0
	for _, c := range cases {
		acyclic := hypergraph.OfScheme(c.db).Acyclic()
		for _, strat := range Strategies() {
			if strat == StrategyAcyclic && !acyclic {
				continue
			}
			for _, w := range []int{1, 2} {
				opts := Options{Strategy: strat, Workers: w, Limits: govern.Limits{MaxTuples: c.budget}}
				got, gotErr := Join(cloneDB(t, c.db), opts)
				db := cloneDB(t, c.db)
				plan, err := PlanFor(db, opts)
				if err != nil {
					t.Fatalf("%s/%s: PlanFor: %v", c.name, strat, err)
				}
				if plan.Strategy == StrategyAuto {
					t.Fatalf("%s/%s: plan strategy not resolved", c.name, strat)
				}
				want, wantErr := ExecutePlan(db, plan, opts)
				// Parallel workers overshoot a budget by a racy margin, so
				// only sequential aborts must match word for word.
				sameErr := errors.Is(gotErr, govern.ErrTupleBudget) == errors.Is(wantErr, govern.ErrTupleBudget) &&
					(gotErr == nil) == (wantErr == nil)
				if !sameErr || (w == 1 && fmt.Sprint(gotErr) != fmt.Sprint(wantErr)) {
					t.Fatalf("%s/%s/w%d: Join error %v, plan route error %v", c.name, strat, w, gotErr, wantErr)
				}
				checked++
				if gotErr != nil {
					continue
				}
				if !got.Result.Equal(want.Result) || got.Cost != want.Cost || got.Produced != want.Produced ||
					got.Plan != want.Plan || fmt.Sprint(got.Notes) != fmt.Sprint(want.Notes) {
					t.Fatalf("%s/%s/w%d: Join and the plan route differ:\n--- Join ---\n%s\n--- plan route ---\n%s",
						c.name, strat, w, got.Explain(), want.Explain())
				}
			}
		}
	}
	// Every case runs every strategy but acyclic at both worker counts.
	if floor := len(cases) * (len(Strategies()) - 1) * 2; checked < floor {
		t.Fatalf("only %d strategy runs compared, want at least %d", checked, floor)
	}
}

func TestPlanReusableAcrossEdgeOrder(t *testing.T) {
	db := triangleDB(t)
	plan, err := PlanFor(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The same relations registered in a different order share the
	// fingerprint, so the cached plan must serve them too.
	permuted, err := db.Restrict([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecutePlan(permuted, plan, Options{})
	if err != nil {
		t.Fatalf("ExecutePlan on permuted database: %v", err)
	}
	if !rep.Result.Equal(db.Join()) {
		t.Error("plan on permuted database != ⋈D")
	}
}

func TestExecutePlanRejectsWrongScheme(t *testing.T) {
	plan, err := PlanFor(triangleDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePlan(chainDB(t), plan, Options{}); err == nil {
		t.Fatal("plan accepted a database over a different scheme")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPlanAutoResolution(t *testing.T) {
	cyc, err := PlanFor(triangleDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Strategy != StrategyProgram {
		t.Errorf("cyclic auto resolved to %s, want program", cyc.Strategy)
	}
	if cyc.Derivation == nil || cyc.Derivation.Program == nil {
		t.Error("program plan missing derivation")
	}
	acy, err := PlanFor(chainDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acy.Strategy != StrategyAcyclic {
		t.Errorf("acyclic auto resolved to %s, want acyclic", acy.Strategy)
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{
		StrategyAuto, StrategyProgram, StrategyExpression,
		StrategyReduceThenJoin, StrategyAcyclic, StrategyWCOJ,
	} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

// TestParseColumnarStrategy pins the retired strategy names: "columnar"
// selected a kernel for the plan cpf-expression names, and every plan now
// runs on those kernels; "hybrid" was a second chooser beside auto; "direct"
// was the unoptimized left-deep baseline auto never chose, now computed by
// the experiments alone. Each is rejected with the valid names listed.
func TestParseColumnarStrategy(t *testing.T) {
	for _, retired := range []string{"columnar", "hybrid", "direct"} {
		_, err := ParseStrategy(retired)
		if err == nil {
			t.Fatalf("ParseStrategy(%q) accepted a retired name", retired)
		}
		for _, name := range StrategyNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list valid strategy %q", err, name)
			}
		}
	}
	if n := len(StrategyNames()); n != 6 {
		t.Errorf("%d strategy names, want 6", n)
	}
}

// TestExpressionPlanRoundTrip drives the serving path: a plan derived once
// with PlanFor(StrategyExpression) executes correctly, repeatedly — the
// shape the joind plan cache reuses across requests.
func TestExpressionPlanRoundTrip(t *testing.T) {
	db := example3DB(t, 4)
	want := db.Join()
	plan, err := PlanFor(db, Options{Strategy: StrategyExpression})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyExpression || plan.Tree == nil {
		t.Fatalf("plan strategy = %s with tree %v, want cpf-expression with a tree", plan.Strategy, plan.Tree)
	}
	for i := 0; i < 2; i++ {
		rep, err := ExecutePlan(db, plan, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Strategy != StrategyExpression || !rep.Result.Equal(want) {
			t.Fatalf("execution %d: strategy %s, %d tuples (want cpf-expression, %d)",
				i, rep.Strategy, rep.Result.Len(), want.Len())
		}
		if rep.Produced == 0 {
			t.Fatalf("execution %d: no governed charges recorded", i)
		}
	}
}
