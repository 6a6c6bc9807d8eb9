package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ivm"
	"repro/internal/relation"
	"repro/internal/workload"
)

// IVMComparison (experiment EX9) measures what incremental view maintenance
// buys over recomputation on a growing triangle workload: a view over
// R(A,B) ⋈ S(B,C) ⋈ T(C,A) is maintained while triangles arrive a few edges
// at a time. For each delta batch the experiment times (a) propagating the
// delta through the view's compiled delta program and (b) rebuilding the
// materialized result from the post-batch catalog with the same machinery
// (best of trials, since rebuild is repeatable while a delta application is
// consumed by the first run). Both routes must agree exactly with a
// from-scratch join, and the delta path must be strictly faster on every
// small-delta batch — that is the subsystem's acceptance bar: maintenance
// work scales with |Δ|, recomputation with |instance|.
func IVMComparison(seed int64, trials int) (*Table, error) {
	if trials <= 0 {
		trials = 3
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "EX9",
		Title: "Extension — incremental maintenance vs full recompute on a growing triangle workload",
		Columns: []string{
			"workload", "step", "base", "Δ tuples", "result",
			"Δ-apply wall", "rebuild wall", "speedup",
		},
	}

	const steps = 4
	for _, cfg := range []struct{ nodes, edges int }{
		{60, 900},
		{100, 2400},
	} {
		db, err := workload.TriangleSpec{Nodes: cfg.nodes, Edges: cfg.edges}.TriangleDatabase(rng)
		if err != nil {
			return nil, err
		}
		config := fmt.Sprintf("G(%d nodes, %d edges)", cfg.nodes, cfg.edges)
		view, err := ivm.Compile(db)
		if err != nil {
			return nil, fmt.Errorf("EX9 %s: %w", config, err)
		}
		if err := view.Rebuild(db); err != nil {
			return nil, fmt.Errorf("EX9 %s: %w", config, err)
		}
		// scratch is an identical view used only to time full rebuilds.
		scratch, err := ivm.Compile(db)
		if err != nil {
			return nil, fmt.Errorf("EX9 %s: %w", config, err)
		}

		next := int64(cfg.nodes) // fresh vertex ids so every step adds triangles
		for step := 1; step <= steps; step++ {
			// One new triangle (a,b,c) plus one chord back into the old
			// graph: a handful of edge inserts per relation.
			a, b, c := next, next+1, next+2
			next += 3
			old := int64(rng.Intn(cfg.nodes))
			changes := []ivm.Change{
				{Relation: 0, Inserts: []relation.Tuple{relation.Ints(a, b), relation.Ints(old, a)}},
				{Relation: 1, Inserts: []relation.Tuple{relation.Ints(b, c)}},
				{Relation: 2, Inserts: []relation.Tuple{relation.Ints(c, a)}},
			}
			base := int64(db.TotalTuples())
			var deltaTuples int64
			for _, ch := range changes {
				for _, tu := range ch.Inserts {
					if err := db.Relation(ch.Relation).Insert(tu); err != nil {
						return nil, fmt.Errorf("EX9 %s: %w", config, err)
					}
					deltaTuples++
				}
			}

			start := time.Now()
			if _, err := view.Apply(changes, nil); err != nil {
				return nil, fmt.Errorf("EX9 %s step %d: %w", config, step, err)
			}
			deltaWall := time.Since(start)

			var rebuildWall time.Duration
			for i := 0; i < trials; i++ {
				start = time.Now()
				if err := scratch.Rebuild(db); err != nil {
					return nil, fmt.Errorf("EX9 %s step %d: %w", config, step, err)
				}
				if wall := time.Since(start); i == 0 || wall < rebuildWall {
					rebuildWall = wall
				}
			}

			want := db.Join()
			if !view.Result().Equal(want) {
				return nil, fmt.Errorf("EX9 %s step %d: delta-maintained view diverged from recompute", config, step)
			}
			if !scratch.Result().Equal(want) {
				return nil, fmt.Errorf("EX9 %s step %d: rebuilt view diverged from recompute", config, step)
			}
			if deltaWall >= rebuildWall {
				return nil, fmt.Errorf("EX9 %s step %d: delta apply (%s) not strictly faster than rebuild (%s) on a %d-tuple delta",
					config, step, deltaWall, rebuildWall, deltaTuples)
			}
			speedup := float64(rebuildWall) / float64(deltaWall)
			t.AddRow(config, step, base, deltaTuples, want.Len(),
				deltaWall.Round(time.Microsecond), rebuildWall.Round(10*time.Microsecond),
				fmt.Sprintf("%.1f×", speedup))
		}
	}
	t.AddNote("Δ-apply propagates the batch through the view's delta program; rebuild re-derives the result from the full post-batch catalog (best of trials)")
	t.AddNote("the experiment fails unless both routes match a from-scratch join and Δ-apply is strictly faster on every batch")
	t.AddNote("maintenance work scales with |Δ| (here a few edges), recomputation with |instance| — the gap widens as the base grows")
	return t, nil
}
