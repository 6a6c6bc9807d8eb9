package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/workload"
)

// WCOJComparison (experiment EX8) pits the worst-case-optimal Leapfrog
// Triejoin against the paper's derived program on the two cyclic families
// the repo studies: triangle joins over random graphs (the smallest cyclic
// scheme) and the Example 3 four-cycle (the paper's adversarial family).
// The headline metric is *intermediate tuples* — §2.3 cost minus the inputs
// and the output, i.e. everything materialized beyond what the query itself
// requires. The triejoin's count is structurally zero (it enumerates output
// bindings attribute-by-attribute, never a pairwise join), and the
// experiment fails if it is not strictly below the program's on every
// triangle workload — the acceptance bar for the subsystem. Wall time is
// reported as best-of-trials for both routes; it is informative, not a
// pass/fail criterion.
func WCOJComparison(seed int64, trials int) (*Table, error) {
	if trials <= 0 {
		trials = 3
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "EX8",
		Title: "Extension — worst-case-optimal triejoin vs derived program on cyclic schemes",
		Columns: []string{
			"workload", "inputs", "result",
			"program interm.", "wcoj interm.", "program wall", "wcoj wall",
		},
	}

	type workloadCase struct {
		family string
		config string
		db     *relation.Database
	}
	var cases []workloadCase
	for _, cfg := range []struct{ nodes, edges int }{
		{40, 120},
		{40, 360},
		{60, 900},
	} {
		db, err := workload.TriangleSpec{Nodes: cfg.nodes, Edges: cfg.edges}.TriangleDatabase(rng)
		if err != nil {
			return nil, err
		}
		cases = append(cases, workloadCase{
			family: "triangle",
			config: fmt.Sprintf("G(%d nodes, %d edges)", cfg.nodes, cfg.edges),
			db:     db,
		})
	}
	for _, q := range []int64{6, 10} {
		spec, err := workload.Example3(q)
		if err != nil {
			return nil, err
		}
		db, err := spec.CycleDatabase()
		if err != nil {
			return nil, err
		}
		cases = append(cases, workloadCase{
			family: "cycle4",
			config: fmt.Sprintf("Example3(q=%d)", q),
			db:     db,
		})
	}

	for _, c := range cases {
		want := c.db.Join()
		inputs := int64(c.db.TotalTuples())
		run := func(s engine.Strategy) (*engine.Report, time.Duration, error) {
			var best time.Duration
			var rep *engine.Report
			for i := 0; i < trials; i++ {
				start := time.Now()
				r, err := engine.Join(c.db, engine.Options{Strategy: s})
				wall := time.Since(start)
				if err != nil {
					return nil, 0, fmt.Errorf("EX8 %s %s: %w", c.config, s, err)
				}
				if !r.Result.Equal(want) {
					return nil, 0, fmt.Errorf("EX8 %s: strategy %s computed a wrong result", c.config, s)
				}
				if rep == nil || wall < best {
					best, rep = wall, r
				}
			}
			return rep, best, nil
		}
		prog, progWall, err := run(engine.StrategyProgram)
		if err != nil {
			return nil, err
		}
		wcoj, wcojWall, err := run(engine.StrategyWCOJ)
		if err != nil {
			return nil, err
		}
		out := int64(want.Len())
		progInter := prog.Cost - inputs - out
		wcojInter := wcoj.Cost - inputs - out
		if wcojInter != 0 {
			return nil, fmt.Errorf("EX8 %s: wcoj charged %d intermediates; its cost model is inputs + output",
				c.config, wcojInter)
		}
		if c.family == "triangle" && wcojInter >= progInter {
			return nil, fmt.Errorf("EX8 %s: wcoj intermediates (%d) not strictly below the program's (%d)",
				c.config, wcojInter, progInter)
		}
		t.AddRow(c.config, inputs, want.Len(), progInter, wcojInter,
			progWall.Round(10*time.Microsecond), wcojWall.Round(10*time.Microsecond))
	}
	t.AddNote("intermediates = §2.3 cost − inputs − output: what a route materializes beyond the question and the answer")
	t.AddNote("the triejoin's intermediates are structurally zero — it intersects trie levels attribute-by-attribute and never forms a pairwise join")
	t.AddNote("the program's semijoin-bounded heads are the paper's *pairwise* optimum (Theorem 2); the triejoin sidesteps the pairwise model those bounds live in")
	return t, nil
}
