package shard

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
)

func triangleDB(t *testing.T) *relation.Database {
	t.Helper()
	db, err := workload.TriangleSpec{Nodes: 10, Edges: 40}.TriangleDatabase(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestChooseAttribute(t *testing.T) {
	// Star: the hub attribute is on every edge; leaves are on one each.
	h, err := workload.StarScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := ChooseAttribute(h); got != "hub" {
		t.Fatalf("star partition attribute = %q, want hub", got)
	}
	// Triangle: all attributes have degree 2; the lexicographic tie-break
	// must pick A deterministically.
	ht := hypergraph.OfScheme(triangleDB(t))
	if got := ChooseAttribute(ht); got != "A" {
		t.Fatalf("triangle partition attribute = %q, want A", got)
	}
}

func TestGroupPartitionInvariants(t *testing.T) {
	db := triangleDB(t)
	g, err := NewGroup("tri", db, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Attr() != "A" {
		t.Fatalf("attr = %q", g.Attr())
	}
	// R(A,B) and T(C,A) carry A and partition; S(B,C) lacks it: broadcast.
	wantPart := []bool{true, false, true}
	for i, want := range wantPart {
		if g.Partitioned(i) != want {
			t.Fatalf("relation %d partitioned = %v, want %v", i, g.Partitioned(i), want)
		}
	}
	// Partitioned relations: shard tuple counts sum to the full relation and
	// every tuple lands on the shard Owner names. Broadcast relations are
	// pointer-shared with the full catalog.
	for i := 0; i < db.Len(); i++ {
		full := db.Relation(i)
		if !g.Partitioned(i) {
			for s := 0; s < g.Shards(); s++ {
				if g.DB(s).Relation(i) != full {
					t.Fatalf("broadcast relation %d on shard %d is not pointer-shared", i, s)
				}
			}
			continue
		}
		total := 0
		for s := 0; s < g.Shards(); s++ {
			part := g.DB(s).Relation(i)
			total += part.Len()
			for _, row := range part.Rows() {
				if own := g.Owner(i, row); own != s {
					t.Fatalf("relation %d tuple %v on shard %d, Owner says %d", i, row, s, own)
				}
			}
		}
		if total != full.Len() {
			t.Fatalf("relation %d shards hold %d tuples, full has %d", i, total, full.Len())
		}
	}
	if g.BroadcastTuples() != int64(db.Relation(1).Len()) {
		t.Fatalf("BroadcastTuples = %d, want %d", g.BroadcastTuples(), db.Relation(1).Len())
	}
}

func TestGroupBroadcastThreshold(t *testing.T) {
	db := triangleDB(t) // 40 tuples per relation
	g, err := NewGroup("tri", db, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.PartitionedCount(); n != 0 {
		t.Fatalf("threshold 64 over 40-tuple relations: %d partitioned, want 0", n)
	}
	g, err = NewGroup("tri", db, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.PartitionedCount(); n != 2 {
		t.Fatalf("threshold 16: %d partitioned, want 2 (S lacks the attribute)", n)
	}
}

func TestCleanForReasons(t *testing.T) {
	db := triangleDB(t)
	g, err := NewGroup("tri", db, 4, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Tree strategies scatter: the best triangle tree joins S against a
	// subtree holding a partitioned relation.
	plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyExpression})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := g.CleanFor(plan); !ok {
		t.Fatalf("cpf-expression triangle plan unclean: %s", reason)
	}

	// Leapfrog needs every relation partitioned; S is broadcast here.
	plan, err = engine.PlanFor(db, engine.Options{Strategy: engine.StrategyWCOJ})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := g.CleanFor(plan); ok || !strings.Contains(reason, "leapfrog") {
		t.Fatalf("wcoj clean = %v (%s), want unclean leapfrog reason", ok, reason)
	}

	// Fixpoint reduction is never clean.
	plan, err = engine.PlanFor(db, engine.Options{Strategy: engine.StrategyReduceThenJoin})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := g.CleanFor(plan); ok {
		t.Fatal("reduce-then-join must never scatter")
	}

	// A hybrid route is judged by its program like any plan: every shard
	// runs the route the full instance's statistics chose. A sparse
	// triangle steers the chooser to binary joins, which scatter.
	sparse, err := workload.TriangleSpec{Nodes: 30, Edges: 40}.TriangleDatabase(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGroup("tri", sparse, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = engine.PlanFor(sparse, engine.Options{Strategy: engine.StrategyHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := g2.CleanFor(plan); !ok {
		t.Fatalf("hybrid sparse-triangle plan unclean: %s\n%s", reason, plan.Program)
	}

	// All-broadcast groups never scatter.
	gb, err := NewGroup("tri", db, 4, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = engine.PlanFor(db, engine.Options{Strategy: engine.StrategyExpression})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := gb.CleanFor(plan); ok {
		t.Fatal("all-broadcast group reported clean")
	}

	// A single-shard group is trivially clean for anything.
	g1, err := NewGroup("tri", db, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := g1.CleanFor(plan); !ok {
		t.Fatal("single-shard group must be clean")
	}
}

func TestRunRejectsAnotherGroupsExecutor(t *testing.T) {
	db := triangleDB(t)
	g, err := NewGroup("tri", db, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewGroup("tri", db, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyExpression})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []*InProcess{nil, NewInProcess(other)} {
		if _, err := Run(g, plan, engine.Options{}, ex); err == nil {
			t.Fatalf("Run accepted a nil or foreign executor (%p)", ex)
		}
	}
	if _, err := Run(g, plan, engine.Options{}, NewInProcess(g)); err != nil {
		t.Fatalf("Run with the group's own executor: %v", err)
	}
}

func TestShardOfMatchesPartitionHash(t *testing.T) {
	// ShardOf must be stable and in-range for mixed value kinds.
	rows := []relation.Tuple{
		{relation.Int(0), relation.Int(1)},
		{relation.Int(-7), relation.String("x")},
		{relation.String(""), relation.Int(1 << 40)},
	}
	for _, row := range rows {
		for _, n := range []int{1, 2, 4, 8} {
			s := row.ShardOf(0, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%v, %d) = %d out of range", row, n, s)
			}
			if again := row.ShardOf(0, n); again != s {
				t.Fatalf("ShardOf not deterministic: %d then %d", s, again)
			}
		}
		if row.ShardOf(0, 1) != 0 {
			t.Fatal("single shard must own everything")
		}
	}
}
