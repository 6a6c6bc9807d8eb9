package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
)

// ColumnarComparison (experiment EX10) pits the columnar batch kernels
// against the tuple-map operators they replaced: the cpf-expression plan
// runs its tree as a program on the block executor, and the reference
// jointree.Tree.Eval evaluates the *same* tree on tuple maps, so their §2.3
// costs are provably equal (the experiment hard-fails if not) and the only
// degree of freedom is wall time — per-tuple map insertion and Value
// hashing versus dictionary codes, packed uint64 keys, and batch appends.
// Both sides time execution of the planned tree only, search excluded. The
// acceptance bar: on the largest size of each family, the block route must
// be strictly faster, best-of-trials against best-of-trials. The relations
// keep their blocks after the first trial (relation.Relation.Block), so
// best-of-trials times the kernels on resident inputs and the encode shows
// only in that first trial. Smaller sizes are reported but informative
// only.
func ColumnarComparison(seed int64, trials int) (*Table, error) {
	if trials <= 0 {
		trials = 3
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "EX10",
		Title: "Extension — columnar batch kernels vs tuple-map operators on the same plans",
		Columns: []string{
			"workload", "inputs", "result", "interm.",
			"tuple-map wall", "columnar wall", "speedup",
		},
	}

	type workloadCase struct {
		config  string
		db      *relation.Database
		largest bool
	}
	var cases []workloadCase
	for _, cfg := range []struct {
		nodes, edges int
		largest      bool
	}{
		{40, 120, false},
		{40, 360, false},
		{60, 900, false},
		{120, 3000, true},
	} {
		db, err := workload.TriangleSpec{Nodes: cfg.nodes, Edges: cfg.edges}.TriangleDatabase(rng)
		if err != nil {
			return nil, err
		}
		cases = append(cases, workloadCase{
			config:  fmt.Sprintf("G(%d nodes, %d edges)", cfg.nodes, cfg.edges),
			db:      db,
			largest: cfg.largest,
		})
	}
	for _, q := range []struct {
		q       int64
		largest bool
	}{{6, false}, {10, false}, {14, true}} {
		spec, err := workload.Example3(q.q)
		if err != nil {
			return nil, err
		}
		db, err := spec.CycleDatabase()
		if err != nil {
			return nil, err
		}
		cases = append(cases, workloadCase{
			config:  fmt.Sprintf("Example3(q=%d)", q.q),
			db:      db,
			largest: q.largest,
		})
	}

	for _, c := range cases {
		want := c.db.Join()
		inputs := int64(c.db.TotalTuples())
		plan, err := engine.PlanFor(c.db, engine.Options{Strategy: engine.StrategyExpression})
		if err != nil {
			return nil, fmt.Errorf("EX10 %s: %w", c.config, err)
		}
		// The plan's tree is in canonical edge order; the reference evaluator
		// reads the database in that order too.
		cdb, err := c.db.Restrict(hypergraph.OfScheme(c.db).CanonicalOrder())
		if err != nil {
			return nil, err
		}
		// best runs one route trials times and keeps its fastest run.
		best := func(route func() (*relation.Relation, int64, error)) (cost int64, fastest time.Duration, err error) {
			for i := 0; i < trials; i++ {
				start := time.Now()
				out, runCost, err := route()
				wall := time.Since(start)
				if err != nil {
					return 0, 0, err
				}
				if !out.Equal(want) {
					return 0, 0, fmt.Errorf("computed a wrong result")
				}
				if i == 0 || wall < fastest {
					fastest = wall
				}
				cost = runCost
			}
			return cost, fastest, nil
		}
		tupCost, tupWall, err := best(func() (*relation.Relation, int64, error) {
			out, cost := plan.Tree.Eval(cdb)
			return out, int64(cost), nil
		})
		if err != nil {
			return nil, fmt.Errorf("EX10 %s tuple-map: %w", c.config, err)
		}
		colCost, colWall, err := best(func() (*relation.Relation, int64, error) {
			rep, err := engine.ExecutePlan(c.db, plan, engine.Options{})
			if err != nil {
				return nil, 0, err
			}
			return rep.Result, rep.Cost, nil
		})
		if err != nil {
			return nil, fmt.Errorf("EX10 %s cpf-expression: %w", c.config, err)
		}
		if colCost != tupCost {
			return nil, fmt.Errorf("EX10 %s: block cost %d != tuple-map cost %d on the same tree",
				c.config, colCost, tupCost)
		}
		if c.largest && colWall >= tupWall {
			return nil, fmt.Errorf("EX10 %s: block wall %s not strictly below tuple-map %s on the family's largest size",
				c.config, colWall, tupWall)
		}
		out := int64(want.Len())
		inter := tupCost - inputs - out
		speedup := float64(tupWall) / float64(colWall)
		t.AddRow(c.config, inputs, want.Len(), inter,
			tupWall.Round(10*time.Microsecond), colWall.Round(10*time.Microsecond),
			fmt.Sprintf("%.2fx", speedup))
	}
	t.AddNote("both routes evaluate the identical optimized CPF tree — tuple-map: jointree.Tree.Eval; columnar: the cpf-expression plan's compiled program — and §2.3 costs are asserted equal, so the delta is pure execution machinery")
	t.AddNote("columnar: dictionary-encoded blocks, sorted-merge code remapping, packed uint64 join keys, batch appends sharing dictionaries by reference")
	t.AddNote("acceptance: strictly faster on each family's largest size (best-of-trials); inputs are encoded by the first trial and resident after it, so best-of-trials times the kernels alone")
	return t, nil
}
