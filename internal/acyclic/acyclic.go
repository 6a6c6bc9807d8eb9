// Package acyclic implements the classical machinery for acyclic database
// schemes that the paper builds on (§1): the Bernstein–Goodman full reducer
// (a semijoin program that makes the database globally consistent), monotone
// join expressions (no intermediate larger than the final join), and
// Yannakakis' polynomial algorithm for project-join queries.
//
// Example 3 of the paper uses this machinery negatively: its cyclic database
// is pairwise consistent, so a full reducer removes nothing, while the join
// has a single tuple.
package acyclic

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/program"
	"repro/internal/relation"
)

// FullReducer builds the Bernstein–Goodman semijoin program for an acyclic
// scheme: an upward sweep of semijoins along a GYO join tree (each parent
// reduced by its child, children first), then a downward sweep (each child
// reduced by its parent). Applying it to any database over the scheme makes
// the database globally consistent. The returned program's statements all
// have the §2.2 in-place form "R(R) := R(R) ⋉ R(S)"; its output is the root
// relation.
//
// It returns an error when the scheme is cyclic.
func FullReducer(h *hypergraph.Hypergraph) (*program.Program, *hypergraph.JoinTree, error) {
	jt, ok := h.GYO()
	if !ok {
		return nil, nil, fmt.Errorf("acyclic: scheme %s is cyclic", h)
	}
	names := jointree.SchemeNames(h)
	p := &program.Program{Inputs: names, Output: names[jt.Root]}
	// Upward: ears were removed leaves-first, so reducing each removed
	// node's parent in removal order sees fully-reduced children.
	for _, e := range jt.RemovalOrder {
		f := jt.Parent[e]
		p.Stmts = append(p.Stmts, program.Stmt{
			Op: program.OpSemijoin, Head: names[f], Arg1: names[f], Arg2: names[e],
		})
	}
	// Downward: in reverse removal order, each removed node is reduced by
	// its (already consistent) parent.
	for i := len(jt.RemovalOrder) - 1; i >= 0; i-- {
		e := jt.RemovalOrder[i]
		f := jt.Parent[e]
		p.Stmts = append(p.Stmts, program.Stmt{
			Op: program.OpSemijoin, Head: names[e], Arg1: names[e], Arg2: names[f],
		})
	}
	return p, jt, nil
}

// Reduce applies the full reducer to db and returns the reduced database
// (same scheme, possibly smaller relations) plus the semijoin program's
// cost. The input database is not modified. The reducer runs on the block
// executor, which hands back every relation's reduced block.
func Reduce(db *relation.Database) (*relation.Database, int, error) {
	p, _, err := FullReducer(hypergraph.OfScheme(db))
	if err != nil {
		return nil, 0, err
	}
	inputs := make([]*relation.ColBlock, db.Len())
	for i := range inputs {
		inputs[i] = db.Relation(i).Block()
	}
	bound, trace, err := p.Execute(inputs, nil, 1)
	if err != nil {
		return nil, 0, err
	}
	reduced := make([]*relation.ColBlock, db.Len())
	for i, name := range p.Inputs {
		reduced[i] = bound[name]
	}
	out, err := db.Reduced(reduced)
	if err != nil {
		return nil, 0, err
	}
	return out, db.TotalTuples() + program.Generated(trace), nil
}

// MonotoneTree returns a monotone join expression for an acyclic scheme: a
// linear tree that joins the relations in reverse GYO-removal order
// (root first, then each ear under its already-included parent). On a
// globally consistent database, every intermediate result of this tree has
// no more tuples than the final join.
func MonotoneTree(jt *hypergraph.JoinTree) *jointree.Tree {
	t := jointree.NewLeaf(jt.Root)
	for i := len(jt.RemovalOrder) - 1; i >= 0; i-- {
		t = jointree.NewJoin(t, jointree.NewLeaf(jt.RemovalOrder[i]))
	}
	return t
}

// JoinProgram compiles the classical pipeline for an acyclic scheme into
// one program: the full reducer's semijoins, then the joins of
// MonotoneTree(jt) over the reduced inputs; jt is the GYO join tree both
// follow. The program's §2.3 cost counts the inputs once, the semijoin
// heads, and the join heads — the reduced relations are not counted again
// as the joins' leaves. It returns an error when the scheme is cyclic.
func JoinProgram(h *hypergraph.Hypergraph) (*program.Program, *hypergraph.JoinTree, error) {
	p, jt, err := FullReducer(h)
	if err != nil {
		return nil, nil, err
	}
	join := MonotoneTree(jt).Program(h)
	p.Stmts = append(p.Stmts, join.Stmts...)
	p.Output = join.Output
	return p, jt, nil
}

// Join computes ⋈D for an acyclic scheme the classical way: full-reduce,
// then evaluate the monotone join expression. It returns the result and the
// total cost (semijoin program cost plus monotone join cost, counting the
// reduced relations once as the join's inputs).
func Join(db *relation.Database) (*relation.Relation, int, error) {
	return JoinGoverned(db, nil)
}

// JoinGoverned is Join under a governor: JoinProgram applied to db, so both
// phases charge their outputs and honor cancellation, aborting with the
// governor's typed error and no partial result.
func JoinGoverned(db *relation.Database, g *govern.Governor) (*relation.Relation, int, error) {
	p, _, err := JoinProgram(hypergraph.OfScheme(db))
	if err != nil {
		return nil, 0, err
	}
	res, err := p.ApplyGoverned(db, g)
	if err != nil {
		return nil, 0, err
	}
	return res.Output, res.Cost, nil
}

// Yannakakis computes π_out(⋈D) for an acyclic scheme in time polynomial in
// the input and output sizes: full-reduce, then sweep the join tree
// bottom-up, joining each child into its parent and projecting onto the
// parent's attributes plus any output attributes collected in the child's
// subtree. The root is finally projected onto out.
//
// out must be a subset of the scheme's attributes.
func Yannakakis(db *relation.Database, out relation.AttrSet) (*relation.Relation, int, error) {
	p, err := YannakakisProgram(hypergraph.OfScheme(db), out)
	if err != nil {
		return nil, 0, err
	}
	res, err := p.Apply(db)
	if err != nil {
		return nil, 0, err
	}
	return res.Output, res.Cost, nil
}

// YannakakisProgram compiles Yannakakis' algorithm for an acyclic scheme
// into one program: the full reducer, then per removed ear (children before
// parents) a join into its parent and a projection onto the parent's
// attributes plus the output attributes gathered so far, then π_out of the
// root. It returns an error when the scheme is cyclic or out is not a
// subset of its attributes.
func YannakakisProgram(h *hypergraph.Hypergraph, out relation.AttrSet) (*program.Program, error) {
	if !h.Attrs().ContainsAll(out) {
		return nil, fmt.Errorf("acyclic: output attributes %s not all in scheme %s", out, h)
	}
	p, jt, err := FullReducer(h)
	if err != nil {
		return nil, err
	}
	// cur names the variable holding each edge's relation, attrs its
	// attributes.
	cur := append([]string(nil), p.Inputs...)
	attrs := append([]relation.AttrSet(nil), h.Edges()...)
	for _, e := range jt.RemovalOrder {
		f := jt.Parent[e]
		keep := h.Edge(f).Union(out.Intersect(attrs[f].Union(attrs[e])))
		v := p.FreshVar("Y")
		p.Stmts = append(p.Stmts,
			program.Stmt{Op: program.OpJoin, Head: v, Arg1: cur[f], Arg2: cur[e]},
			program.Stmt{Op: program.OpProject, Head: v, Arg1: v, Proj: keep})
		cur[f], attrs[f] = v, keep
	}
	p.Output = p.FreshVar("Y")
	p.Stmts = append(p.Stmts, program.Stmt{Op: program.OpProject, Head: p.Output, Arg1: cur[jt.Root], Proj: out})
	return p, nil
}
