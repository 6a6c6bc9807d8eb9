// Package repro's benchmarks regenerate every experiment in DESIGN.md's
// index (one benchmark per table/figure/claim, E1–E10) plus operator
// kernels. Custom metrics report the quantities the paper talks about —
// costs and cost ratios — alongside wall-clock time.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// example3 builds the paper-shaped instance at scale q, failing the
// benchmark on error.
func example3(b *testing.B, q int64) (workload.CycleSpec, *relation.Database) {
	b.Helper()
	spec, err := workload.Example3(q)
	if err != nil {
		b.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		b.Fatal(err)
	}
	return spec, db
}

// BenchmarkExample3Expressions (E1) measures the exact optimization of the
// Example-3 instance in each search space and reports the paper's headline
// numbers as metrics.
func BenchmarkExample3Expressions(b *testing.B) {
	for _, q := range []int64{6, 10, 16} {
		spec, db := example3(b, q)
		_ = spec
		b.Run(bname("q", q), func(b *testing.B) {
			var optCost, cpfCost int64
			for i := 0; i < b.N; i++ {
				cat := optimizer.NewCatalog(db, 0)
				opt, err := optimizer.Optimal(cat, optimizer.SpaceAll)
				if err != nil {
					b.Fatal(err)
				}
				cpf, err := optimizer.Optimal(cat, optimizer.SpaceCPF)
				if err != nil {
					b.Fatal(err)
				}
				// A plan's cost leaves out |⋈D|, which is 1 here.
				optCost, cpfCost = opt.Cost+1, cpf.Cost+1
			}
			b.ReportMetric(float64(optCost), "optimal-cost")
			b.ReportMetric(float64(cpfCost), "cheapest-CPF-cost")
			b.ReportMetric(float64(cpfCost)/float64(optCost), "CPF/opt-ratio")
		})
	}
}

// BenchmarkExample3Program (E3) derives the program from the optimal tree
// and executes it on the Example-3 database.
func BenchmarkExample3Program(b *testing.B) {
	for _, q := range []int64{6, 10, 16} {
		_, db := example3(b, q)
		h := hypergraph.OfScheme(db)
		tree := experiments.Figure1Tree(h)
		b.Run(bname("q", q), func(b *testing.B) {
			var cost int
			for i := 0; i < b.N; i++ {
				d, err := core.DeriveFromTree(tree, h, nil)
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.Program.Apply(db)
				if err != nil {
					b.Fatal(err)
				}
				if res.Output.Len() != 1 {
					b.Fatalf("program computed %d tuples", res.Output.Len())
				}
				cost = res.Cost
			}
			b.ReportMetric(float64(cost), "program-cost")
		})
	}
}

// BenchmarkAlgorithm1 (E2) measures CPFify itself — pure tree surgery,
// independent of data size.
func BenchmarkAlgorithm1(b *testing.B) {
	h := experiments.PaperScheme()
	t1 := experiments.Figure1Tree(h)
	b.Run("Figure1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CPFify(t1, h, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Enumerate16", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			all, err := core.EnumerateCPFifications(t1, h, 0)
			if err != nil {
				b.Fatal(err)
			}
			n = len(all)
		}
		b.ReportMetric(float64(n), "distinct-trees")
	})
	// Larger random input: a 10-cycle.
	spec := workload.UniformCycle(10, 2, 1)
	h10, err := spec.CycleScheme()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tree := jointree.RandomTree(rng, 10)
	b.Run("random10cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CPFify(tree, h10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlgorithm2 (E3) measures Derive — statement generation only.
func BenchmarkAlgorithm2(b *testing.B) {
	h := experiments.PaperScheme()
	t2 := experiments.Figure2Tree(h)
	b.Run("Figure2", func(b *testing.B) {
		var stmts int
		for i := 0; i < b.N; i++ {
			d, err := core.Derive(t2, h)
			if err != nil {
				b.Fatal(err)
			}
			stmts = d.Program.Len()
		}
		b.ReportMetric(float64(stmts), "statements")
	})
	spec := workload.UniformCycle(10, 2, 1)
	h10, err := spec.CycleScheme()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	tree := jointree.RandomTree(rng, 10)
	cpf, err := core.CPFify(tree, h10, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("random10cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Derive(cpf, h10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeriveAndRun (E4) measures the full Theorem-1 pipeline on random
// instances: CPFify + Derive + Apply + correctness check.
func BenchmarkDeriveAndRun(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
		Relations: 5, Attrs: 6, MaxArity: 3, Connected: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	db, err := workload.RandomDatabase(rng, h, 30, 3)
	if err != nil {
		b.Fatal(err)
	}
	want := db.Join()
	tree := jointree.RandomTree(rng, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.DeriveFromTree(tree, h, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Program.Apply(db)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Output.Equal(want) {
			b.Fatal("wrong output")
		}
	}
}

// BenchmarkTheorem2Bound (E5/E6) measures one bound-verification trial and
// reports the observed cost ratio against r(a+5).
func BenchmarkTheorem2Bound(b *testing.B) {
	_, db := example3(b, 10)
	h := hypergraph.OfScheme(db)
	tree := experiments.Figure1Tree(h)
	t1Cost := tree.Cost(db)
	var ratio float64
	var bound int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.DeriveFromTree(tree, h, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Program.Apply(db)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cost >= d.QuasiFactor*t1Cost {
			b.Fatal("Theorem 2 bound violated")
		}
		ratio = float64(res.Cost) / float64(t1Cost)
		bound = d.QuasiFactor
	}
	b.ReportMetric(ratio, "cost-ratio")
	b.ReportMetric(float64(bound), "bound-r(a+5)")
}

// BenchmarkFullReducer (E7) measures the semijoin program on the dangling
// chain and on the pairwise-consistent restriction.
func BenchmarkFullReducer(b *testing.B) {
	dangling, err := workload.DanglingChainDatabase(6, 200, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("danglingChain", func(b *testing.B) {
		var removed int
		for i := 0; i < b.N; i++ {
			reduced, _, err := acyclic.Reduce(dangling)
			if err != nil {
				b.Fatal(err)
			}
			removed = dangling.TotalTuples() - reduced.TotalTuples()
		}
		b.ReportMetric(float64(removed), "tuples-removed")
	})
	spec := workload.UniformCycle(4, 3, 40)
	cyc, err := spec.CycleDatabase()
	if err != nil {
		b.Fatal(err)
	}
	path, err := cyc.Restrict([]int{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pairwiseConsistentPath", func(b *testing.B) {
		var removed int
		for i := 0; i < b.N; i++ {
			reduced, _, err := acyclic.Reduce(path)
			if err != nil {
				b.Fatal(err)
			}
			removed = path.TotalTuples() - reduced.TotalTuples()
		}
		if removed != 0 {
			b.Fatal("reducer removed tuples from pairwise-consistent data")
		}
		b.ReportMetric(float64(removed), "tuples-removed")
	})
}

// BenchmarkYannakakis (E8) measures the acyclic pipeline.
func BenchmarkYannakakis(b *testing.B) {
	db, err := workload.DanglingChainDatabase(6, 200, 100)
	if err != nil {
		b.Fatal(err)
	}
	proj := relation.NewAttrSet("x0", "x6")
	b.Run("projectJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := acyclic.Yannakakis(db, proj); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := acyclic.Join(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchSpace (E9) measures the space-size counters of §4.
func BenchmarkSearchSpace(b *testing.B) {
	spec := workload.UniformCycle(12, 2, 1)
	h, err := spec.CycleScheme()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cpf float64
	for i := 0; i < b.N; i++ {
		n := jointree.CountCPFTrees(h)
		f, _ := n.Float64()
		cpf = f
		jointree.CountLinearTrees(h, true)
	}
	b.ReportMetric(cpf, "CPF-trees-12cycle")
}

// BenchmarkLinearCPFProbe (E10) measures one probe instance: derive a
// program from every linear CPF tree of the paper scheme and keep the best.
func BenchmarkLinearCPFProbe(b *testing.B) {
	_, db := example3(b, 6)
	h := hypergraph.OfScheme(db)
	trees, err := jointree.AllLinearTrees(h, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var best int
	for i := 0; i < b.N; i++ {
		best = 1 << 30
		for _, tr := range trees {
			d, err := core.Derive(tr, h)
			if err != nil {
				b.Fatal(err)
			}
			res, err := d.Program.Apply(db)
			if err != nil {
				b.Fatal(err)
			}
			if res.Cost < best {
				best = res.Cost
			}
		}
	}
	b.ReportMetric(float64(best), "best-linear-CPF-program-cost")
}

// BenchmarkOptimizers (EX1) measures each optimizer on a uniform cycle.
func BenchmarkOptimizers(b *testing.B) {
	db, err := workload.UniformCycle(6, 3, 4).CycleDatabase()
	if err != nil {
		b.Fatal(err)
	}
	warm := optimizer.NewCatalog(db, 0)
	if _, err := optimizer.Optimal(warm, optimizer.SpaceAll); err != nil {
		b.Fatal(err)
	}
	b.Run("exactAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimizer.Optimal(warm, optimizer.SpaceAll); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exactCPF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimizer.Optimal(warm, optimizer.SpaceCPF); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimizer.Greedy(warm, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOperators measures the relational kernels the whole system rests
// on.
func BenchmarkOperators(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(scheme string, n, domain int) *relation.Relation {
		r := relation.New(relation.SchemaOfRunes(scheme))
		for i := 0; i < n; i++ {
			row := make(relation.Tuple, r.Schema().Len())
			for c := range row {
				row[c] = relation.Int(int64(rng.Intn(domain)))
			}
			r.MustInsert(row)
		}
		return r
	}
	l := mk("ABC", 10000, 300)
	r := mk("CDE", 10000, 300)
	b.Run("HashJoin10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relation.Join(l, r)
		}
	})
	b.Run("Semijoin10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relation.Semijoin(l, r)
		}
	})
	b.Run("Project10k", func(b *testing.B) {
		attrs := relation.NewAttrSet("A", "C")
		for i := 0; i < b.N; i++ {
			relation.MustProject(l, attrs)
		}
	})
	b.Run("ProgramApply", func(b *testing.B) {
		db := relation.MustDatabase(l, r)
		p := &program.Program{
			Inputs: []string{"ABC", "CDE"},
			Stmts: []program.Stmt{
				{Op: program.OpSemijoin, Head: "ABC", Arg1: "ABC", Arg2: "CDE"},
				{Op: program.OpJoin, Head: "V", Arg1: "ABC", Arg2: "CDE"},
			},
			Output: "V",
		}
		for i := 0; i < b.N; i++ {
			if _, err := p.Apply(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// bname formats a sub-benchmark name.
func bname(k string, v int64) string {
	return k + "=" + itoa(v)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkEngineStrategies (EX2) measures the engine's execution routes on
// the Example-3 instance.
func BenchmarkEngineStrategies(b *testing.B) {
	_, db := example3(b, 10)
	for _, s := range []engine.Strategy{
		engine.StrategyExpression,
		engine.StrategyReduceThenJoin,
		engine.StrategyProgram,
	} {
		b.Run(s.String(), func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				rep, err := engine.Join(db, engine.Options{Strategy: s})
				if err != nil {
					b.Fatal(err)
				}
				cost = rep.Cost
			}
			b.ReportMetric(float64(cost), "exec-cost")
		})
	}
}

// BenchmarkProgramTriangle runs the served benchmark's cyclic_program query
// in process: the dense 90-node, 1 600-edge triangle (seed 1992), planned
// once on the program route, then the cached plan executed under a tuple
// budget — the serving hot path without HTTP.
func BenchmarkProgramTriangle(b *testing.B) {
	db, err := workload.TriangleSpec{Nodes: 90, Edges: 1600}.TriangleDatabase(rand.New(rand.NewSource(1992)))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyProgram})
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.Options{Limits: govern.Limits{MaxTuples: 1 << 40}}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *engine.Report
	for i := 0; i < b.N; i++ {
		if rep, err = engine.ExecutePlan(db, plan, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Cost), "exec-cost")
	b.ReportMetric(float64(rep.Produced), "tuples-charged")
}

// TestProgramTriangleAllocatesUnder256KiB pins the bytes
// BenchmarkProgramTriangle's query allocates per run: its big join head,
// R(V) := R(V) ⋈ R(BC) with 28 354 rows, is read only as pairs by its two
// readers and never written, and its first semijoin removes nothing and
// writes nothing. Writing that head took the query to about 535 KB.
func TestProgramTriangleAllocatesUnder256KiB(t *testing.T) {
	db, err := workload.TriangleSpec{Nodes: 90, Edges: 1600}.TriangleDatabase(rand.New(rand.NewSource(1992)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyProgram})
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Limits: govern.Limits{MaxTuples: 1 << 40}}
	if _, err := engine.ExecutePlan(db, plan, opts); err != nil { // encodes the inputs once
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := engine.ExecutePlan(db, plan, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256<<10 {
		t.Fatalf("the dense triangle's program query allocates %d bytes per run, want at most %d", per, 256<<10)
	}
}

// BenchmarkWCOJSparseTriangle runs the served benchmark's sparse_wcoj query
// in process: the 2 000-node, 16 000-edge triangle (seed 1992), planned once
// on the wcoj route, then the cached plan executed under a tuple budget.
// warm re-reads one database, so after the first iteration every index is
// resident on its relation; cold clones the relations each iteration, so
// every iteration pays the encode, the trie build and the alignment.
func BenchmarkWCOJSparseTriangle(b *testing.B) {
	db, err := workload.TriangleSpec{Nodes: 2000, Edges: 16000}.TriangleDatabase(rand.New(rand.NewSource(1992)))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyWCOJ})
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.Options{Limits: govern.Limits{MaxTuples: 1 << 40}}
	for _, mode := range []string{"warm", "cold"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var rep *engine.Report
			for i := 0; i < b.N; i++ {
				in := db
				if mode == "cold" {
					b.StopTimer()
					rels := make([]*relation.Relation, db.Len())
					for r := range rels {
						rels[r] = db.Relation(r).Clone()
					}
					in = relation.MustDatabase(rels...)
					b.StartTimer()
				}
				if rep, err = engine.ExecutePlan(in, plan, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Cost), "exec-cost")
			b.ReportMetric(float64(rep.Produced), "tuples-charged")
		})
	}
}

// BenchmarkWCOJSkewed runs the wcoj join sequentially and warm on Zipf
// databases over a 3 000-value domain (workload.ZipfDatabase, seed 1992): a
// triangle of 20 000 tuples per relation and a 4-cycle of 5 000 (at 20 000
// its output is millions of rows), each at exponents 1.1, 1.5 and 2.0.
// Skew makes the per-variable child ranges lopsided, so this is where the
// intersection kernel's choice between merging and probing shows.
func BenchmarkWCOJSkewed(b *testing.B) {
	for _, scheme := range []struct {
		name, edges string
		size        int
	}{
		{"triangle", "AB BC AC", 20000},
		{"4-cycle", "AB BC CD AD", 5000},
	} {
		h, err := hypergraph.ParseScheme(scheme.edges)
		if err != nil {
			b.Fatal(err)
		}
		order := wcoj.VariableOrder(h)
		for _, s := range []float64{1.1, 1.5, 2.0} {
			db, err := workload.ZipfDatabase(rand.New(rand.NewSource(1992)), h, scheme.size, 3000, s)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/s=%.1f", scheme.name, s), func(b *testing.B) {
				// One untimed run leaves every trie and alignment resident.
				if _, err := wcoj.JoinGoverned(db, order, nil, 1); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var res *wcoj.Result
				for i := 0; i < b.N; i++ {
					gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
					if res, err = wcoj.JoinGoverned(db, order, gov, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Block.Len()), "rows")
			})
		}
	}
}

// BenchmarkRandomTree measures the Rémy sampler.
func BenchmarkRandomTree(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < b.N; i++ {
		jointree.RandomTree(rng, 12)
	}
}
