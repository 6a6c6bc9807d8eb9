package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// randomBatch draws one mutation batch against db: a few random inserts
// over each relation's schema plus deletions of existing rows.
func randomBatch(rng *rand.Rand, db *relation.Database) store.Batch {
	var batch store.Batch
	for i := 0; i < db.Len(); i++ {
		rel := db.Relation(i)
		m := store.Mutation{Relation: i}
		for k := 0; k < 1+rng.Intn(4); k++ {
			row := make(relation.Tuple, rel.Schema().Len())
			for c := range row {
				row[c] = relation.Int(int64(rng.Intn(8)))
			}
			m.Inserts = append(m.Inserts, row)
		}
		if rows := rel.Rows(); len(rows) > 0 && rng.Intn(2) == 0 {
			m.Deletes = append(m.Deletes, rows[rng.Intn(len(rows))])
		}
		batch = append(batch, m)
	}
	return batch
}

// applyReference applies a batch to the unsharded catalog — the oracle the
// rebased shard group is compared against.
func applyReference(db *relation.Database, batch store.Batch) (*relation.Database, error) {
	return store.ApplyBatch(db, batch)
}

// startPeers registers each shard's partition in its own service behind an
// httptest server and returns the HTTP executor over them.
func startPeers(t *testing.T, g *shard.Group) *shard.HTTPExecutor {
	t.Helper()
	peers := make([]string, g.Shards())
	for i := 0; i < g.Shards(); i++ {
		svc := service.New(service.Config{})
		if _, err := svc.Register(g.Name(), g.DB(i)); err != nil {
			t.Fatalf("peer %d: register: %v", i, err)
		}
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		peers[i] = srv.URL
	}
	return shard.NewHTTPExecutor(peers, nil)
}

// TestRemoteExecutorGauntlet runs the differential gauntlet through the
// HTTP executor: each shard is a real joind service behind httptest, and
// the scatter must still be observationally identical to sequential
// execution. The remote wire carries only the strategy name — each peer
// rederives its plan — so the gauntlet pins the strategies whose plans are
// functions of the scheme alone (direct's left-deep tree, leapfrog's
// variable order, the search-free acyclic pipeline): for those every peer
// provably executes the same plan the coordinator validated clean, and
// cost, charge, and abort-boundary parity carry over the wire. Instance-
// steered searches (expression, program) may legitimately pick
// different trees per partition; they are covered for result correctness.
func TestRemoteExecutorGauntlet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := gauntletCases(t, rng, 8)
	deterministic := map[engine.Strategy]bool{
		engine.StrategyDirect:  true,
		engine.StrategyWCOJ:    true,
		engine.StrategyAcyclic: true,
	}
	trials, scatters := 0, 0
	for _, c := range cases {
		// Partition everything the attribute allows: thresholds are a
		// coordinator-side concern already covered in process.
		g, err := shard.NewGroup(c.name, c.db, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		ex := startPeers(t, g)
		for _, strat := range engine.Strategies() {
			plan, err := engine.PlanFor(c.db, engine.Options{Strategy: strat})
			if err != nil {
				continue
			}
			seq, err := engine.ExecutePlan(c.db, plan, engine.Options{Limits: govern.Limits{MaxTuples: hugeBudget}})
			if err != nil {
				t.Fatalf("%s/%s: sequential baseline: %v", c.name, strat, err)
			}
			tag := fmt.Sprintf("remote/%s/%s", c.name, strat)
			if deterministic[plan.Strategy] {
				if assertParity(t, tag, g, plan, ex, seq) {
					scatters++
				}
				assertAbortBoundary(t, tag, c.db, g, plan, ex, seq.Produced)
			} else {
				rep, err := shard.Run(g, plan, engine.Options{Limits: govern.Limits{MaxTuples: hugeBudget}}, ex)
				if err != nil {
					t.Fatalf("%s: run: %v", tag, err)
				}
				if !rep.Result.Equal(seq.Result) {
					t.Fatalf("%s: remote result (%d tuples) != sequential (%d tuples)",
						tag, rep.Result.Len(), seq.Result.Len())
				}
				if rep.Shards > 1 {
					scatters++
				}
			}
			trials++
		}
	}
	if scatters == 0 {
		t.Fatal("remote gauntlet never scattered")
	}
	t.Logf("remote gauntlet: %d cases, %d trials, %d scattered", len(cases), trials, scatters)
}

// TestRemoteExecutorAbortMapping asserts a peer's resource_limit error
// kind unwraps to the same govern sentinel an in-process abort carries, so
// coordinators treat remote and local aborts identically.
func TestRemoteExecutorAbortMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db, err := workload.TriangleSpec{Nodes: 10, Edges: 40}.TriangleDatabase(rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := shard.NewGroup("tri", db, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := startPeers(t, g)
	plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	// A budget of 1 forces every peer to abort remotely (not just the
	// coordinator's gather post-check).
	_, err = shard.Run(g, plan, engine.Options{Limits: govern.Limits{MaxTuples: 1}}, ex)
	if !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("run under budget 1: got %v, want ErrTupleBudget", err)
	}
}
