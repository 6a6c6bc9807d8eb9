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
	env, trace, err := p.ExecuteOracle(db, g)
	if err != nil {
		return nil, err
	}
	return &Result{Output: env[p.Output], Cost: db.TotalTuples() + Generated(trace), Trace: trace}, nil
}

// ExecuteOracle is ApplyOracle returning, like Execute, the relation every
// input and variable name is bound to after the last statement.
func (p *Program) ExecuteOracle(db *relation.Database, g *govern.Governor) (map[string]*relation.Relation, []Step, error) {
	if db.Len() != len(p.Inputs) {
		return nil, nil, fmt.Errorf("program: database has %d relations, program has %d inputs",
			db.Len(), len(p.Inputs))
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	env := make(map[string]*relation.Relation, len(p.Inputs)+len(p.Stmts))
	for i, name := range p.Inputs {
		env[name] = db.Relation(i)
	}
	trace := make([]Step, 0, len(p.Stmts))
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
			return nil, nil, fmt.Errorf("program: statement %d (%s): %w", i+1, s, err)
		}
		env[s.Head] = out
		trace = append(trace, Step{Stmt: s, Schema: out.Schema(), Size: out.Len()})
	}
	return env, trace, nil
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
