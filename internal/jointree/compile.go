package jointree

import (
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/program"
	"repro/internal/relation"
)

// Program compiles the tree into the join-only program that evaluates it:
// one ⋈ statement per internal node, in post-order (left subtree, right
// subtree, node — Eval's order), each into a fresh variable. The inputs are
// SchemeNames(h) and the output is the root's variable, or the input itself
// for a one-leaf tree. Applied to a database over h the program computes
// Eval's result at Eval's §2.3 cost: Σ leaves + Σ internal heads is exactly
// the program's Σ inputs + Σ statement heads.
func (t *Tree) Program(h *hypergraph.Hypergraph) *program.Program {
	p := &program.Program{Inputs: SchemeNames(h)}
	p.Output = t.AppendJoins(p, p.Inputs)
	return p
}

// AppendJoins appends the tree's ⋈ statements to p as Program emits them,
// reading leaf i as the relation named leaves[i], and returns the name that
// holds the tree's result: the root's variable, or leaves[t.Leaf] for a
// one-leaf tree.
func (t *Tree) AppendJoins(p *program.Program, leaves []string) string {
	if t.IsLeaf() {
		return leaves[t.Leaf]
	}
	l, r := t.Left.AppendJoins(p, leaves), t.Right.AppendJoins(p, leaves)
	head := p.FreshVar("T")
	p.Stmts = append(p.Stmts, program.Stmt{Op: program.OpJoin, Head: head, Arg1: l, Arg2: r})
	return head
}

// EvalColumnarGoverned evaluates the tree under a governor on the block
// executor: the compiled Program applied to db, its leaves the relations'
// resident blocks and the root returned block-backed (its rows decoded only
// if read). Result and cost equal Eval's; every join charges its output and
// a blown budget, cancellation or deadline aborts with the governor's typed
// error and no partial result.
func (t *Tree) EvalColumnarGoverned(db *relation.Database, g *govern.Governor) (*relation.Relation, int, error) {
	res, err := t.Program(hypergraph.OfScheme(db)).ApplyGoverned(db, g)
	if err != nil {
		return nil, 0, err
	}
	return res.Output, res.Cost, nil
}
