package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/ivm"
	"repro/internal/relation"
	"repro/internal/workload"
)

// IVMComparison (experiment EX9) measures what incremental view maintenance
// buys over recomputation on a growing triangle workload: a view over
// R(A,B) ⋈ S(B,C) ⋈ T(C,A) is maintained while triangles arrive a few edges
// at a time. For each delta batch the experiment counts the delta rows its
// steps emit (ivm.BatchStats.StepRows, the work the governor charges) on
// two routes: (a) propagating the batch through the maintained view's delta
// program, and (b) rebuilding — a freshly compiled view applying the whole
// post-batch catalog from empty, as registration does. Both routes must
// agree exactly with a from-scratch join, and the delta route must emit
// strictly fewer step rows on every batch — that is the subsystem's
// acceptance bar: maintenance work scales with |Δ|, recomputation with
// |instance|.
func IVMComparison(seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "EX9",
		Title: "Extension — incremental maintenance vs full recompute on a growing triangle workload",
		Columns: []string{
			"workload", "step", "base", "Δ tuples", "result",
			"Δ step rows", "rebuild step rows",
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

			delta, err := view.Apply(changes, nil)
			if err != nil {
				return nil, fmt.Errorf("EX9 %s step %d: %w", config, step, err)
			}
			scratch, err := ivm.Compile(db)
			if err != nil {
				return nil, fmt.Errorf("EX9 %s step %d: %w", config, step, err)
			}
			all := make([]ivm.Change, db.Len())
			for i := range all {
				all[i] = ivm.Change{Relation: i, Inserts: db.Relation(i).Rows()}
			}
			rebuild, err := scratch.Apply(all, nil)
			if err != nil {
				return nil, fmt.Errorf("EX9 %s step %d: %w", config, step, err)
			}

			want := db.Join()
			if !view.Result().Equal(want) {
				return nil, fmt.Errorf("EX9 %s step %d: delta-maintained view diverged from recompute", config, step)
			}
			if !scratch.Result().Equal(want) {
				return nil, fmt.Errorf("EX9 %s step %d: rebuilt view diverged from recompute", config, step)
			}
			if delta.StepRows >= rebuild.StepRows {
				return nil, fmt.Errorf("EX9 %s step %d: delta apply emitted %d step rows, not strictly below the rebuild's %d, on a %d-tuple delta",
					config, step, delta.StepRows, rebuild.StepRows, deltaTuples)
			}
			t.AddRow(config, step, base, deltaTuples, want.Len(), delta.StepRows, rebuild.StepRows)
		}
	}
	t.AddNote("step rows = delta rows emitted across the view's steps (ivm.BatchStats.StepRows), the work the governor charges")
	t.AddNote("Δ-apply propagates the batch through the maintained view's delta program; rebuild applies the full post-batch catalog to a freshly compiled, empty view")
	t.AddNote("the experiment fails unless both routes match a from-scratch join and Δ-apply emits strictly fewer step rows on every batch")
	t.AddNote("maintenance work scales with |Δ| (here a few edges), recomputation with |instance|; wall time is the served benchmark's to measure (bench/README.md)")
	return t, nil
}
