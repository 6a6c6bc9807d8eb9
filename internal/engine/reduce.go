// Package engine is the user-facing facade: given a database, it picks (or
// is told) a strategy — the classical acyclic pipeline, direct evaluation of
// an optimized join expression, or the paper's derive-a-program route — runs
// it, and returns the result with cost accounting and an EXPLAIN-style
// report.
package engine

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/program"
	"repro/internal/relation"
)

// PairwiseReduction is the natural generalization of a full reducer to
// cyclic schemes: repeatedly semijoin every relation with every neighbour
// until no relation shrinks (or maxRounds passes complete). On acyclic
// schemes this reaches the full reducer's fixpoint (global consistency); on
// cyclic schemes it reaches local (pairwise) consistency only — the paper's
// Example 3 is built so that this fixpoint removes nothing while ⋈D is
// nearly empty.
type PairwiseReduction struct {
	// Database is the reduced database (inputs are never mutated).
	Database *relation.Database
	// Cost counts every semijoin head produced, per the §2.3 model
	// (the original inputs are not counted here; callers add them once).
	Cost int
	// Rounds is the number of full passes executed, including the final
	// pass that found a fixpoint.
	Rounds int
	// Removed is the total number of tuples eliminated.
	Removed int
}

// PairwiseReduceGoverned runs the reduction. maxRounds ≤ 0 means no limit
// (the reduction always terminates: relation sizes strictly decrease between
// rounds). Under a non-nil governor each semijoin head charges its tuples and
// cancellation aborts between semijoins with the governor's typed error (the
// failpoint sites are the executor's "program.Stmt" and the kernels' own
// "relation.Semijoin"); a nil governor runs ungoverned.
func PairwiseReduceGoverned(db *relation.Database, maxRounds int, g *govern.Governor) (*PairwiseReduction, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	red, blocks, err := pairwiseReduce(db, hypergraph.OfScheme(db), maxRounds, g, 1)
	if err != nil {
		return nil, err
	}
	if red.Database, err = db.Reduced(blocks); err != nil {
		return nil, err
	}
	return red, nil
}

// pairwiseRound is one round of the reduction as a semijoin program:
// R_i := R_i ⋉ R_j for every ordered pair of distinct overlapping relations,
// i the outer and j the inner index. Inputs are jointree.SchemeNames(h).
func pairwiseRound(h *hypergraph.Hypergraph) *program.Program {
	p := &program.Program{Inputs: jointree.SchemeNames(h)}
	for i, ri := range p.Inputs {
		for j, rj := range p.Inputs {
			if i != j && h.Edge(i).Overlaps(h.Edge(j)) {
				p.Stmts = append(p.Stmts, program.Stmt{Op: program.OpSemijoin, Head: ri, Arg1: ri, Arg2: rj})
			}
		}
	}
	p.Output = p.Inputs[0]
	return p
}

// pairwiseReduce runs the round program on the block executor until a round
// shrinks no relation (or maxRounds rounds ran), each round over the blocks
// the previous one bound, and returns the reduction with Database unset plus
// the final blocks. Semijoins only remove rows, so a round shrank some
// relation exactly when that relation's final block is smaller than the
// block the round started from.
func pairwiseReduce(db *relation.Database, h *hypergraph.Hypergraph, maxRounds int, g *govern.Governor, workers int) (*PairwiseReduction, []*relation.ColBlock, error) {
	round := pairwiseRound(h)
	blocks := make([]*relation.ColBlock, db.Len())
	for i := range blocks {
		blocks[i] = db.Relation(i).Block()
	}
	out := &PairwiseReduction{}
	for {
		out.Rounds++
		bound, trace, err := round.Execute(blocks, g, workers)
		if err != nil {
			return nil, nil, err
		}
		out.Cost += program.Generated(trace)
		changed := false
		for i, name := range round.Inputs {
			changed = changed || bound[name].Len() < blocks[i].Len()
			blocks[i] = bound[name]
		}
		if !changed || (maxRounds > 0 && out.Rounds >= maxRounds) {
			break
		}
	}
	out.Removed = db.TotalTuples()
	for _, b := range blocks {
		out.Removed -= b.Len()
	}
	return out, blocks, nil
}
