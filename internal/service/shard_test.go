package service

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestShardedServiceQueryParity runs the same query through a sharded and
// an unsharded service and asserts identical results, costs, and charges —
// the service-level slice of the differential gauntlet — plus the scatter
// counters behind the joind_shard_* metrics.
func TestShardedServiceQueryParity(t *testing.T) {
	db, err := workload.TriangleSpec{Nodes: 15, Edges: 60}.TriangleDatabase(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	plain := New(Config{})
	if _, err := plain.Register("tri", db); err != nil {
		t.Fatal(err)
	}
	// Negative threshold: never broadcast by size, so the triangle's R and T
	// partition and tree strategies scatter.
	sharded := New(Config{Shards: 4, ShardBroadcastThreshold: -1})
	if _, err := sharded.Register("tri", db); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"", "auto", "program", "cpf-expression", "hybrid", "wcoj", "reduce-then-join"} {
		req := Request{Database: "tri", Strategy: strategy, MaxTuples: 1 << 40}
		want, err := plain.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%q unsharded: %v", strategy, err)
		}
		got, err := sharded.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%q sharded: %v", strategy, err)
		}
		if !got.Result.Equal(want.Result) {
			t.Fatalf("%q: sharded result differs (%d vs %d tuples)", strategy, got.Result.Len(), want.Result.Len())
		}
		if got.Cost != want.Cost || got.Produced != want.Produced {
			t.Fatalf("%q: sharded cost/produced %d/%d != %d/%d",
				strategy, got.Cost, got.Produced, want.Cost, want.Produced)
		}
	}
	if sharded.shardScatter.Load() == 0 {
		t.Fatal("no query scattered")
	}
	if sharded.shardSingle.Load() == 0 {
		t.Fatal("no unclean query fell back to single-shard execution")
	}
	if sharded.shardTuples.Load() == 0 {
		t.Fatal("scatter gathered no tuples")
	}
}

// TestShardedServiceIngest routes a durable ingest batch through the shard
// group rebase and asserts the post-batch sharded query matches an
// unsharded reference over the same mutated catalog.
func TestShardedServiceIngest(t *testing.T) {
	db, err := workload.TriangleSpec{Nodes: 10, Edges: 35}.TriangleDatabase(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Shards: 4, ShardBroadcastThreshold: -1})
	if err := svc.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("tri", db); err != nil {
		t.Fatal(err)
	}
	batch := store.Batch{
		{Relation: 0, Inserts: db.Relation(1).Rows()[:5]},
		{Relation: 1, Deletes: db.Relation(1).Rows()[:2]},
	}
	if _, err := svc.Ingest(context.Background(), "tri", batch); err != nil {
		t.Fatal(err)
	}
	if svc.shardIngestRouted.Load() == 0 {
		t.Fatal("ingest routed no tuples through the shard group")
	}

	// Reference: apply the same batch unsharded and join sequentially.
	ref, err := store.ApplyBatch(db, batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Join(ref, engine.Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Query(context.Background(), Request{Database: "tri", Strategy: "cpf-expression", MaxTuples: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(want.Result) {
		t.Fatalf("post-ingest sharded result differs (%d vs %d tuples)", got.Result.Len(), want.Result.Len())
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedQueryThroughPlanCache runs a governed auto query whose first
// rung (the program) blows its budget, twice, unsharded and over two
// in-process shards: the ladder climbs through the plan cache rung by rung,
// so the second query derives no plan, each query counts as degraded once,
// and the answer is ⋈D.
func TestDegradedQueryThroughPlanCache(t *testing.T) {
	spec, err := workload.Example3(10)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	want := db.Join()
	for _, shards := range []int{0, 2} {
		svc := New(Config{Shards: shards})
		if _, err := svc.Register("e3", db); err != nil {
			t.Fatal(err)
		}
		// 5 000 tuples: below the program route's 7 115, above the
		// triejoin's inputs plus output.
		req := Request{Database: "e3", MaxTuples: 5000}
		var misses int64
		for i := 0; i < 2; i++ {
			rep, err := svc.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%d shards, query %d: %v", shards, i, err)
			}
			if !rep.Result.Equal(want) {
				t.Fatalf("%d shards, query %d: %d tuples, want %d", shards, i, rep.Result.Len(), want.Len())
			}
			if !strings.HasPrefix(rep.Notes[0], "degradation: program aborted") {
				t.Fatalf("%d shards, query %d: first rung did not abort: %q", shards, i, rep.Notes)
			}
			st := svc.Stats()
			if i == 1 && st.PlanCache.Misses != misses {
				t.Fatalf("%d shards: second degraded query added %d plan-cache misses", shards, st.PlanCache.Misses-misses)
			}
			misses = st.PlanCache.Misses
			if st.Degraded != int64(i+1) {
				t.Fatalf("%d shards, query %d: Degraded = %d, want %d", shards, i, st.Degraded, i+1)
			}
		}
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
