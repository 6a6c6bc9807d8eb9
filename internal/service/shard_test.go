package service

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/relation"
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
	for _, strategy := range []string{"", "cpf-expression", "wcoj", "reduce-then-join"} {
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

// TestShardPeersRoundTrip drives the coordinator's peer path: two
// store-backed services behind httptest hold the partitions, and a
// store-backed coordinator with ShardPeers pushes them at registration
// (pushGroup) and routes three fixed ingest batches to them (pushIngest).
// Before and after the batches, every strategy's result equals an unsharded
// service's. A peer rederives its plan from the strategy name over its own
// partition, so cost and produced must also match only where the plan
// depends on the scheme alone (direct, wcoj, acyclic); for the other
// strategies the gap is logged, not asserted.
func TestShardPeersRoundTrip(t *testing.T) {
	ctx := context.Background()
	tri, err := workload.TriangleSpec{Nodes: 15, Edges: 60}.TriangleDatabase(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := workload.DanglingChainDatabase(3, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	dbs := []struct {
		name string
		db   *relation.Database
	}{{"tri", tri}, {"chain", chain}}

	peers := make([]string, 2)
	for i := range peers {
		peer := newStoreService(t, t.TempDir(), Config{})
		t.Cleanup(func() { peer.Close(ctx) })
		srv := httptest.NewServer(peer.Handler())
		t.Cleanup(srv.Close)
		peers[i] = srv.URL
	}
	// Negative threshold: never broadcast by size, so every relation is
	// hash-partitioned across the peers.
	coord := newStoreService(t, t.TempDir(), Config{ShardPeers: peers, ShardBroadcastThreshold: -1})
	defer coord.Close(ctx)
	plain := newStoreService(t, t.TempDir(), Config{})
	defer plain.Close(ctx)
	for _, d := range dbs {
		for _, s := range []*Service{coord, plain} {
			if _, err := s.Register(d.name, d.db); err != nil {
				t.Fatal(err)
			}
		}
	}

	schemeOnly := map[engine.Strategy]bool{
		engine.StrategyDirect:  true,
		engine.StrategyWCOJ:    true,
		engine.StrategyAcyclic: true,
	}
	compare := func(phase string) {
		t.Helper()
		for _, d := range dbs {
			var reqs []Request
			for _, strat := range engine.Strategies() {
				reqs = append(reqs, Request{Database: d.name, Strategy: strat.String()})
			}
			// auto under a budget between the two sides' program charges on
			// the triangle: the ladders stop on different rungs.
			reqs = append(reqs, Request{Database: d.name, Strategy: "auto", MaxTuples: 380})
			for _, req := range reqs {
				tag := fmt.Sprintf("%s/%s/%s", phase, d.name, req.Strategy)
				if req.MaxTuples > 0 {
					tag += fmt.Sprintf(" under %d tuples", req.MaxTuples)
				}
				want, werr := plain.Query(ctx, req)
				got, gerr := coord.Query(ctx, req)
				if werr != nil || gerr != nil {
					// acyclic on the triangle: both must refuse it.
					if werr == nil || gerr == nil {
						t.Fatalf("%s: unsharded error %v, peers error %v", tag, werr, gerr)
					}
					continue
				}
				if !got.Result.Equal(want.Result) {
					t.Fatalf("%s: peers joined %d tuples, unsharded %d", tag, got.Result.Len(), want.Result.Len())
				}
				if got.Strategy == want.Strategy && got.Cost == want.Cost && got.Produced == want.Produced {
					continue
				}
				if schemeOnly[want.Strategy] && got.Strategy == want.Strategy {
					t.Fatalf("%s: peers cost/produced %d/%d != unsharded %d/%d",
						tag, got.Cost, got.Produced, want.Cost, want.Produced)
				}
				t.Logf("%s: peers ran %s at cost/produced %d/%d, unsharded %s at %d/%d",
					tag, got.Strategy, got.Cost, got.Produced, want.Strategy, want.Cost, want.Produced)
			}
		}
	}
	compare("registered")

	batches := []store.Batch{
		{
			{Relation: 0, Inserts: []relation.Tuple{relation.Ints(1, 2), relation.Ints(2, 3)}},
			{Relation: 1, Inserts: []relation.Tuple{relation.Ints(2, 3), relation.Ints(3, 1)}},
			{Relation: 2, Inserts: []relation.Tuple{relation.Ints(3, 1), relation.Ints(3, 4)}},
		},
		{
			{Relation: 0, Deletes: []relation.Tuple{relation.Ints(2, 3)}},
			{Relation: 2, Inserts: []relation.Tuple{relation.Ints(4, 2), relation.Ints(5, 6)}},
		},
		{
			{Relation: 1, Inserts: []relation.Tuple{relation.Ints(6, 7)}, Deletes: []relation.Tuple{relation.Ints(3, 1)}},
			{Relation: 2, Deletes: []relation.Tuple{relation.Ints(3, 4)}},
		},
	}
	for i, b := range batches {
		for _, d := range dbs {
			for _, s := range []*Service{coord, plain} {
				if _, err := s.Ingest(ctx, d.name, b); err != nil {
					t.Fatalf("batch %d into %s: %v", i, d.name, err)
				}
			}
		}
	}
	compare("ingested")
	if coord.shardScatter.Load() == 0 {
		t.Fatal("no query scattered to the peers")
	}
	if coord.shardIngestRouted.Load() == 0 {
		t.Fatal("ingest routed no tuples to the peers")
	}
}
