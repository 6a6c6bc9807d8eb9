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
// sees from execute. A multiway statement is the tuple-map fold of its
// operands, charged as the leapfrog charges: each operand's tuples under
// "wcoj.trie", then each output tuple under "wcoj.join".
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
			case OpMultiway:
				out, err = multiwayOracle(g, env, s)
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

// multiwayOracle evaluates a multiway statement over the environment with
// the tuple-map join, its output columns in the statement's variable order.
func multiwayOracle(g *govern.Governor, env map[string]*relation.Relation, s Stmt) (*relation.Relation, error) {
	rels := make([]*relation.Relation, len(s.Args))
	for i, name := range s.Args {
		rels[i] = env[name]
		if err := chargeEach(g, "wcoj.trie", rels[i].Len()); err != nil {
			return nil, err
		}
	}
	joined, err := relation.JoinAll(rels...)
	if err != nil {
		return nil, err
	}
	pos, err := joined.Schema().Positions(s.Order)
	if err != nil || len(pos) != joined.Schema().Len() {
		return nil, fmt.Errorf("order %v does not cover %s: %v", s.Order, joined.Schema(), err)
	}
	out := relation.New(relation.MustSchema(s.Order...))
	for _, t := range joined.Rows() {
		row := make(relation.Tuple, len(pos))
		for c, p := range pos {
			row[c] = t[p]
		}
		out.MustInsert(row)
	}
	return out, chargeEach(g, "wcoj.join", out.Len())
}

// chargeEach charges n tuples, with the one-at-a-time abort boundary, under
// a fresh scope of op.
func chargeEach(g *govern.Governor, op string, n int) error {
	scope, err := g.Begin(op)
	if err != nil {
		return err
	}
	m := scope.Meter()
	if err := m.AddEach(n); err != nil {
		return err
	}
	return m.Close()
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
