package core

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/program"
	"repro/internal/relation"
)

// ProgramPlan pairs a CPF join expression tree with the program Algorithm 2
// derives from it and the program's measured cost on a database.
type ProgramPlan struct {
	Tree    *jointree.Tree
	Program *program.Program
	Cost    int
}

// BestProgramOverAllCPFTrees derives a program from every CPF tree exactly
// over the scheme and returns the cheapest on db. Exponential in the scheme
// size; intended for small schemes and for the experiments that verify the
// paper's existence claim by exhaustion.
func BestProgramOverAllCPFTrees(h *hypergraph.Hypergraph, db *relation.Database) (ProgramPlan, error) {
	trees, err := jointree.AllCPFTrees(h)
	if err != nil {
		return ProgramPlan{}, err
	}
	if len(trees) == 0 {
		return ProgramPlan{}, fmt.Errorf("core: scheme %s has no CPF trees", h)
	}
	want := db.Join()
	best := ProgramPlan{Cost: int(^uint(0) >> 1)}
	for _, tr := range trees {
		d, err := Derive(tr, h)
		if err != nil {
			return ProgramPlan{}, err
		}
		res, err := d.Program.Apply(db)
		if err != nil {
			return ProgramPlan{}, err
		}
		if !res.Output.Equal(want) {
			return ProgramPlan{}, fmt.Errorf("core: derived program computed the wrong join for %s", tr.String(h))
		}
		if res.Cost < best.Cost {
			best = ProgramPlan{Tree: tr, Program: d.Program, Cost: res.Cost}
		}
	}
	return best, nil
}
