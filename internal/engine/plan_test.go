package engine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/govern"
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

func TestPlanForExecutePlanMatchesJoin(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *relation.Database
	}{
		{"cyclic-triangle", triangleDB(t)},
		{"acyclic-chain", chainDB(t)},
	} {
		for _, strat := range []Strategy{
			StrategyAuto, StrategyProgram, StrategyExpression,
			StrategyReduceThenJoin, StrategyDirect,
		} {
			opts := Options{Strategy: strat}
			plan, err := PlanFor(tc.db, opts)
			if err != nil {
				t.Fatalf("%s/%s: PlanFor: %v", tc.name, strat, err)
			}
			if plan.Strategy == StrategyAuto {
				t.Fatalf("%s/%s: plan strategy not resolved", tc.name, strat)
			}
			rep, err := ExecutePlan(tc.db, plan, opts)
			if err != nil {
				t.Fatalf("%s/%s: ExecutePlan: %v", tc.name, strat, err)
			}
			want := tc.db.Join()
			if !rep.Result.Equal(want) {
				t.Errorf("%s/%s: plan result != ⋈D (%d vs %d tuples)",
					tc.name, strat, rep.Result.Len(), want.Len())
			}
		}
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
		StrategyReduceThenJoin, StrategyAcyclic, StrategyDirect,
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

// TestParseColumnarStrategy pins the retirement of the "columnar" name:
// it selected a kernel for the plan cpf-expression names, and every plan
// now runs on those kernels, so it is rejected with the valid names listed.
func TestParseColumnarStrategy(t *testing.T) {
	_, err := ParseStrategy("columnar")
	if err == nil {
		t.Fatal(`ParseStrategy("columnar") accepted a retired name`)
	}
	for _, name := range StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid strategy %q", err, name)
		}
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
