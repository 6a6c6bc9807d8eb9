package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// HeadlineClaim (experiment E11) verifies the paper's main statement by
// exhaustion on small instances: among ALL CPF join expressions over the
// scheme, at least one yields (via Algorithm 2) a program whose cost is
// below r(a+5) times the optimal join expression cost. It also reports how
// much better the best derived program is than the cheapest CPF expression
// evaluated directly — the practical payoff of deriving programs.
func HeadlineClaim(trials int, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "E11",
		Title: "Main theorem by exhaustion — some CPF expression always yields a quasi-optimal program",
		Columns: []string{
			"instance", "optimal expr", "cheapest CPF expr", "best derived program",
			"prog/opt", "bound r(a+5)", "claim holds",
		},
	}

	check := func(name string, dbBuilder func() (*optimizer.Catalog, error)) error {
		cat, err := dbBuilder()
		if err != nil {
			return err
		}
		db := cat.Database()
		h := cat.Hypergraph()
		opt, err := optimal(cat, optimizer.SpaceAll)
		if err != nil {
			return err
		}
		cpf, err := optimal(cat, optimizer.SpaceCPF)
		if err != nil {
			return err
		}
		best, err := core.BestProgramOverAllCPFTrees(h, db)
		if err != nil {
			return err
		}
		qf := core.QuasiFactor(h.Len(), h.Attrs().Len())
		holds := int64(best.Cost) < int64(qf)*opt.Cost
		t.AddRow(name, opt.Cost, cpf.Cost, best.Cost,
			ratio(int64(best.Cost), opt.Cost), qf, map[bool]string{true: "yes", false: "NO"}[holds])
		if !holds {
			return fmt.Errorf("experiments: headline claim failed on %s", name)
		}
		return nil
	}

	if err := check("Example3(q=8)", func() (*optimizer.Catalog, error) {
		spec, err := workload.Example3(8)
		if err != nil {
			return nil, err
		}
		db, err := spec.CycleDatabase()
		if err != nil {
			return nil, err
		}
		return optimizer.NewCatalog(db, 0), nil
	}); err != nil {
		return nil, err
	}

	done := 0
	for attempt := 0; done < trials && attempt < trials*20; attempt++ {
		h, db, err := randomInstance(rng, 3+rng.Intn(2), 3+rng.Intn(3), 2+rng.Intn(8), 2)
		if err != nil {
			return nil, err
		}
		if db.Join().IsEmpty() {
			continue
		}
		if n, err := jointree.AllCPFTrees(h); err != nil || len(n) == 0 {
			continue
		}
		done++
		name := fmt.Sprintf("random#%d %s", done, h)
		if err := check(name, func() (*optimizer.Catalog, error) {
			return optimizer.NewCatalog(db, 0), nil
		}); err != nil {
			return nil, err
		}
	}
	t.AddNote("'claim holds' = best derived program cost < r(a+5) × optimal expression cost, verified over EVERY CPF tree")
	t.AddNote("the best derived program often undercuts the cheapest CPF expression — semijoins prune what joins must enumerate")
	return t, nil
}
