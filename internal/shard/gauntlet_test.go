package shard_test

// The differential gauntlet: scatter-gather execution must be
// observationally identical to sequential execution — same result, same
// §2.3 cost, same governor charges, and the same tuple-budget abort
// boundary — across random schemes (cyclic ones included), every strategy,
// shard counts {1,2,4,8}, and broadcast thresholds from "partition
// everything" to "broadcast everything". Plans the cleanliness analysis
// rejects fall back to single-shard execution inside Run, so parity is
// asserted on every trial, not just the clean ones.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// gauntletCase is one (scheme, instance) trial.
type gauntletCase struct {
	name   string
	db     *relation.Database
	cyclic bool
	// threshold is the broadcast threshold for this trial's groups.
	threshold int
	// strategies are the plans tried on the case.
	strategies []engine.Strategy
}

// hugeBudget makes the governor count charges without ever aborting, so
// sequential and sharded Produced are comparable on every trial.
const hugeBudget = int64(1) << 40

var gauntletCounts = []int{1, 2, 4, 8}

// gauntletCases draws the trial set: random connected schemes plus
// cyclic-by-construction triangle, cycle, and clique workloads. The
// broadcast threshold rotates per case so the gauntlet exercises
// all-partitioned, mixed, and all-broadcast layouts (the last forcing the
// unclean single-shard fallback).
func gauntletCases(t *testing.T, rng *rand.Rand, randomSchemes int) []gauntletCase {
	t.Helper()
	thresholds := []int{0, 8, 64, 1 << 30}
	var cases []gauntletCase
	add := func(name string, db *relation.Database) {
		h := hypergraph.OfScheme(db)
		cases = append(cases, gauntletCase{
			name:       name,
			db:         db,
			cyclic:     !h.Acyclic(),
			threshold:  thresholds[len(cases)%len(thresholds)],
			strategies: engine.Strategies(),
		})
	}

	for i := 0; i < randomSchemes; i++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 3 + rng.Intn(3),
			Attrs:     5,
			MaxArity:  3,
			Connected: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 4+rng.Intn(12), 3)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("random-%d", i), db)
	}

	// Cyclic by construction: triangles, Example 3 cycles, and a 4-clique.
	for i, spec := range []workload.TriangleSpec{
		{Nodes: 12, Edges: 40}, {Nodes: 20, Edges: 60}, {Nodes: 8, Edges: 30},
		{Nodes: 25, Edges: 70}, {Nodes: 15, Edges: 50}, {Nodes: 10, Edges: 45},
		{Nodes: 18, Edges: 55}, {Nodes: 14, Edges: 48},
	} {
		db, err := spec.TriangleDatabase(rng)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("triangle-%d", i), db)
	}
	for _, q := range []int64{4, 6, 8, 10} {
		spec, err := workload.Example3(q)
		if err != nil {
			t.Fatal(err)
		}
		db, err := spec.CycleDatabase()
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("example3-q%d", q), db)
	}
	for i := 0; i < 8; i++ {
		h, err := workload.CliqueScheme(4)
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 6+rng.Intn(8), 3)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("clique4-%d", i), db)
	}
	return cases
}

// largeCases are two inputs far above the random draws: a triangle over
// G(300 nodes, 18 000 edges) and the Example 3 cycle at q = 14, each
// partitioned everywhere (threshold 0) and tried under cpf-expression
// only, which keeps the test's run time and memory small.
func largeCases(t *testing.T) []gauntletCase {
	t.Helper()
	tri, err := workload.TriangleSpec{Nodes: 300, Edges: 18000}.TriangleDatabase(rand.New(rand.NewSource(1992)))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Example3(14)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	only := []engine.Strategy{engine.StrategyExpression}
	return []gauntletCase{
		{name: "triangle-G(300,18000)", db: tri, cyclic: true, strategies: only},
		{name: "example3-q14", db: cycle, cyclic: true, strategies: only},
	}
}

// assertParity runs one (case, plan, shard count) trial against its
// sequential baseline and fails on any observable divergence.
func assertParity(t *testing.T, tag string, g *shard.Group, plan *engine.Plan, seq *engine.Report) (scattered bool) {
	t.Helper()
	opts := engine.Options{Limits: govern.Limits{MaxTuples: hugeBudget}}
	rep, err := shard.Run(g, plan, opts, shard.NewInProcess(g))
	if err != nil {
		t.Fatalf("%s: sharded run failed: %v", tag, err)
	}
	if !rep.Result.Equal(seq.Result) {
		t.Fatalf("%s: sharded result (%d tuples) != sequential (%d tuples)",
			tag, rep.Result.Len(), seq.Result.Len())
	}
	if rep.Cost != seq.Cost {
		t.Fatalf("%s: sharded cost %d != sequential %d", tag, rep.Cost, seq.Cost)
	}
	if rep.Produced != seq.Produced {
		t.Fatalf("%s: sharded governor charge %d != sequential %d", tag, rep.Produced, seq.Produced)
	}
	return rep.Shards > 1
}

// assertAbortBoundary checks a budget one below the sequential charge
// aborts both executions with ErrTupleBudget, and a budget exactly at the
// charge aborts neither — the abort fires on the same global produced
// count sharded and not.
func assertAbortBoundary(t *testing.T, tag string, db *relation.Database, g *shard.Group, plan *engine.Plan, seqProduced int64) {
	t.Helper()
	if seqProduced < 2 {
		return // a 0/1-tuple charge has no meaningful boundary below it
	}
	under := engine.Options{Limits: govern.Limits{MaxTuples: seqProduced - 1}}
	if _, err := engine.ExecutePlan(db, plan, under); !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("%s: sequential under-budget run: got %v, want ErrTupleBudget", tag, err)
	}
	if _, err := shard.Run(g, plan, under, shard.NewInProcess(g)); !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("%s: sharded under-budget run: got %v, want ErrTupleBudget", tag, err)
	}
	at := engine.Options{Limits: govern.Limits{MaxTuples: seqProduced}}
	if _, err := engine.ExecutePlan(db, plan, at); err != nil {
		t.Fatalf("%s: sequential at-budget run failed: %v", tag, err)
	}
	if _, err := shard.Run(g, plan, at, shard.NewInProcess(g)); err != nil {
		t.Fatalf("%s: sharded at-budget run failed: %v", tag, err)
	}
}

// TestDifferentialGauntlet is the in-process gauntlet: 100+ schemes (20+
// cyclic), every strategy, plus largeCases under cpf-expression outside
// -short, shard counts {1,2,4,8}, with abort-boundary probes at 4 shards.
// Every plan CleanFor accepts at more than one shard must actually
// scatter, so the parity asserted on it is the scattered run's, not the
// single-shard fallback's.
func TestDifferentialGauntlet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randomSchemes := 80
	if testing.Short() {
		randomSchemes = 20
	}
	cases := gauntletCases(t, rng, randomSchemes)
	if !testing.Short() {
		cases = append(cases, largeCases(t)...)
	}
	cyclic := 0
	for _, c := range cases {
		if c.cyclic {
			cyclic++
		}
	}
	if len(cases) < 100 && !testing.Short() {
		t.Fatalf("gauntlet has %d cases, want >= 100", len(cases))
	}
	if cyclic < 20 {
		t.Fatalf("gauntlet has %d cyclic cases, want >= 20", cyclic)
	}

	trials, scatters, accepted, wcojScatters := 0, 0, 0, 0
	for _, c := range cases {
		for _, strat := range c.strategies {
			plan, err := engine.PlanFor(c.db, engine.Options{Strategy: strat})
			if err != nil {
				continue // e.g. the acyclic pipeline on a cyclic scheme
			}
			seq, err := engine.ExecutePlan(c.db, plan, engine.Options{Limits: govern.Limits{MaxTuples: hugeBudget}})
			if err != nil {
				t.Fatalf("%s/%s: sequential baseline failed: %v", c.name, strat, err)
			}
			for _, n := range gauntletCounts {
				g, err := shard.NewGroup(c.name, c.db, n, c.threshold)
				if err != nil {
					t.Fatalf("%s: group(%d): %v", c.name, n, err)
				}
				tag := fmt.Sprintf("%s/%s/shards=%d/threshold=%d", c.name, strat, n, c.threshold)
				scattered := assertParity(t, tag, g, plan, seq)
				if clean, _ := g.CleanFor(plan); clean && n > 1 {
					accepted++
					if !scattered {
						t.Fatalf("%s: CleanFor accepted the plan but the run did not scatter", tag)
					}
				}
				if scattered {
					scatters++
					if plan.Strategy == engine.StrategyWCOJ {
						wcojScatters++
					}
				}
				trials++
				if n == 4 {
					assertAbortBoundary(t, tag, c.db, g, plan, seq.Produced)
				}
			}
		}
	}
	if scatters == 0 {
		t.Fatal("gauntlet never scattered: every trial fell back to single-shard execution")
	}
	// Each shard runs the coordinator's plan as given, so a multiway
	// statement over partitioned operands scatters like any program.
	if wcojScatters == 0 {
		t.Fatal("no wcoj plan scattered")
	}
	t.Logf("gauntlet: %d cases (%d cyclic), %d trials, %d accepted as clean, %d scattered (%d wcoj)",
		len(cases), cyclic, trials, accepted, scatters, wcojScatters)
}

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

// TestGauntletIngestRebase replays random ingest batches through
// Group.Rebase and asserts the rebased shards still reproduce the
// sequential join of the mutated catalog — the partitions stay in step
// with the full database across mutation, tuple by tuple.
func TestGauntletIngestRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := gauntletCases(t, rng, 10)
	for _, c := range cases {
		g, err := shard.NewGroup(c.name, c.db, 4, c.threshold)
		if err != nil {
			t.Fatal(err)
		}
		db := c.db
		for round := 0; round < 3; round++ {
			batch := randomBatch(rng, db)
			applied, err := applyReference(db, batch)
			if err != nil {
				t.Fatalf("%s: reference apply: %v", c.name, err)
			}
			g, err = g.Rebase(applied, batch)
			if err != nil {
				t.Fatalf("%s: rebase: %v", c.name, err)
			}
			db = applied
			plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyExpression})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := engine.ExecutePlan(db, plan, engine.Options{Limits: govern.Limits{MaxTuples: hugeBudget}})
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s/round=%d", c.name, round)
			assertParity(t, tag, g, plan, seq)
		}
	}
}
