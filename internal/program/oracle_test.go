package program

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/relation"
)

// ApplyOracle is the tuple-map statement loop the block executor replaced,
// kept as the differential oracle: an environment of *relation.Relation,
// statements in textual order with destructive assignment, one tuple-map
// operator per statement. It begins the same "program.Stmt" site and its
// operators charge under the same names, so a governor sees exactly what it
// sees from execute.
func (p *Program) ApplyOracle(db *relation.Database, g *govern.Governor) (*Result, error) {
	if db.Len() != len(p.Inputs) {
		return nil, fmt.Errorf("program: database has %d relations, program has %d inputs",
			db.Len(), len(p.Inputs))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	env := make(map[string]*relation.Relation, len(p.Inputs)+len(p.Stmts))
	res := &Result{Trace: make([]Step, 0, len(p.Stmts))}
	for i, name := range p.Inputs {
		env[name] = db.Relation(i)
		res.Cost += db.Relation(i).Len()
	}
	for i, s := range p.Stmts {
		var out *relation.Relation
		_, err := g.Begin("program.Stmt")
		if err == nil {
			switch s.Op {
			case OpProject:
				out, err = relation.ProjectGoverned(g, env[s.Arg1], s.Proj)
			case OpJoin:
				out, err = relation.JoinGoverned(g, env[s.Arg1], env[s.Arg2])
			case OpSemijoin:
				out, err = relation.SemijoinGoverned(g, env[s.Arg1], env[s.Arg2])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("program: statement %d (%s): %w", i+1, s, err)
		}
		env[s.Head] = out
		res.Cost += out.Len()
		res.Trace = append(res.Trace, Step{Stmt: s, Schema: out.Schema(), Size: out.Len()})
	}
	res.Output = env[p.Output]
	return res, nil
}

// CountEncodings swaps the executor's input encoder for one that counts its
// calls per relation, returning the counts map and a restore function.
func CountEncodings() (counts map[*relation.Relation]int, restore func()) {
	counts = make(map[*relation.Relation]int)
	prev := encodeInput
	encodeInput = func(r *relation.Relation) *relation.ColBlock {
		counts[r]++
		return prev(r)
	}
	return counts, func() { encodeInput = prev }
}
