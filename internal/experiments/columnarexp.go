package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/workload"
)

// ColumnarBenchRow is one workload's tuple-map-vs-columnar measurement in
// EX10.
type ColumnarBenchRow struct {
	Family        string  `json:"family"`
	Config        string  `json:"config"`
	Inputs        int64   `json:"inputs"`
	ResultTuples  int     `json:"result_tuples"`
	Cost          int64   `json:"cost"`
	Intermediates int64   `json:"intermediates"`
	TupleWallMS   float64 `json:"tuple_wall_ms"`
	ColumnWallMS  float64 `json:"columnar_wall_ms"`
	Speedup       float64 `json:"speedup"`
	// Largest marks the family's biggest size — the rows the strictly-faster
	// acceptance bar applies to.
	Largest bool `json:"largest"`
}

// ColumnarBenchResult is the machine-readable outcome of EX10, written by
// joinbench as BENCH_columnar.json.
type ColumnarBenchResult struct {
	Experiment string             `json:"experiment"`
	Trials     int                `json:"trials"`
	Rows       []ColumnarBenchRow `json:"rows"`
}

// ColumnarComparison (experiment EX10) pits the columnar batch kernels
// against the tuple-map operators they shadow: StrategyColumnar and
// StrategyExpression evaluate the *same* optimized CPF tree, so their §2.3
// costs are provably equal (the experiment hard-fails if not) and the only
// degree of freedom is wall time — per-tuple map insertion and Value
// hashing versus dictionary codes, packed uint64 keys, and batch appends.
// The acceptance bar: on the largest size of each family, the columnar
// route must be strictly faster, best-of-trials against best-of-trials.
// The relations keep their blocks after the first trial
// (relation.Relation.Block), so best-of-trials times the kernels on
// resident inputs and the encode shows only in that first trial. Smaller
// sizes are reported but informative only.
func ColumnarComparison(seed int64, trials int) (*Table, *ColumnarBenchResult, error) {
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
	bench := &ColumnarBenchResult{Experiment: "EX10", Trials: trials}

	type workloadCase struct {
		family  string
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
			return nil, nil, err
		}
		cases = append(cases, workloadCase{
			family:  "triangle",
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
			return nil, nil, err
		}
		db, err := spec.CycleDatabase()
		if err != nil {
			return nil, nil, err
		}
		cases = append(cases, workloadCase{
			family:  "cycle4",
			config:  fmt.Sprintf("Example3(q=%d)", q.q),
			db:      db,
			largest: q.largest,
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
					return nil, 0, fmt.Errorf("EX10 %s %s: %w", c.config, s, err)
				}
				if !r.Result.Equal(want) {
					return nil, 0, fmt.Errorf("EX10 %s: strategy %s computed a wrong result", c.config, s)
				}
				if rep == nil || wall < best {
					best, rep = wall, r
				}
			}
			return rep, best, nil
		}
		tup, tupWall, err := run(engine.StrategyExpression)
		if err != nil {
			return nil, nil, err
		}
		col, colWall, err := run(engine.StrategyColumnar)
		if err != nil {
			return nil, nil, err
		}
		if col.Cost != tup.Cost {
			return nil, nil, fmt.Errorf("EX10 %s: columnar cost %d != tuple-map cost %d on the same tree",
				c.config, col.Cost, tup.Cost)
		}
		if c.largest && colWall >= tupWall {
			return nil, nil, fmt.Errorf("EX10 %s: columnar wall %s not strictly below tuple-map %s on the family's largest size",
				c.config, colWall, tupWall)
		}
		out := int64(want.Len())
		inter := tup.Cost - inputs - out
		speedup := float64(tupWall) / float64(colWall)
		t.AddRow(c.config, inputs, want.Len(), inter,
			tupWall.Round(10*time.Microsecond), colWall.Round(10*time.Microsecond),
			fmt.Sprintf("%.2fx", speedup))
		bench.Rows = append(bench.Rows, ColumnarBenchRow{
			Family:        c.family,
			Config:        c.config,
			Inputs:        inputs,
			ResultTuples:  want.Len(),
			Cost:          tup.Cost,
			Intermediates: inter,
			TupleWallMS:   float64(tupWall) / float64(time.Millisecond),
			ColumnWallMS:  float64(colWall) / float64(time.Millisecond),
			Speedup:       speedup,
			Largest:       c.largest,
		})
	}
	t.AddNote("both routes evaluate the identical optimized CPF tree; §2.3 costs are asserted equal, so the delta is pure execution machinery")
	t.AddNote("columnar: dictionary-encoded blocks, sorted-merge code remapping, packed uint64 join keys, batch appends sharing dictionaries by reference")
	t.AddNote("acceptance: strictly faster on each family's largest size (best-of-trials); inputs are encoded by the first trial and resident after it, so best-of-trials times the kernels alone")
	return t, bench, nil
}
