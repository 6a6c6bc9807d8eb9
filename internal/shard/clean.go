package shard

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/jointree"
	"repro/internal/program"
)

// CleanFor reports whether the plan scatters cleanly over this group:
// whether running it independently per shard yields results that are
// disjoint and complete AND governor charges that sum to exactly the
// sequential execution's. When it returns false the reason names what
// breaks, and Run executes the plan unsharded instead — parity then holds
// trivially.
//
// The analysis, per strategy (A is the partition attribute):
//
//   - Expression and direct evaluation run the plan's join tree. An
//     internal node whose subtree holds at least one partitioned leaf
//     produces tuples carrying that leaf's A value, so its per-shard
//     outputs partition by h(t[A]) — disjoint, complete, and charged
//     exactly once across shards. A subtree made only of broadcast leaves
//     would instead be recomputed identically on every shard, multiplying
//     its charges by the shard count; such plans are unclean.
//
//   - WCOJ charges the trie inputs plus the enumerated output. A broadcast
//     relation's trie would be built (and charged) once per shard, so the
//     leapfrog route is clean only when every relation is partitioned.
//
//   - The acyclic full-reducer pipeline runs a fixed semijoin sequence;
//     with every relation partitioned, each semijoin's per-shard outputs
//     partition on A exactly like tree nodes. Any broadcast relation's
//     reductions would be recharged per shard: unclean.
//
//   - The paper's programs are clean when every relation is partitioned
//     and every statement's head retains A: joins and semijoins always
//     propagate A from their arguments, but a projection that drops A
//     makes per-shard heads collide across shards (the same projected
//     tuple arises on several shards and is charged on each), breaking
//     charge parity even though the merged result would dedup correctly.
//
//   - Reduce-then-join iterates pairwise semijoin reduction to a
//     fixpoint whose round count is instance-local: a shard that converges
//     early stops charging while the sequential run keeps scanning its
//     tuples, so charges diverge structurally. Never clean.
func (g *Group) CleanFor(plan *engine.Plan) (bool, string) {
	if g.n == 1 {
		return true, ""
	}
	npart := g.PartitionedCount()
	if npart == 0 {
		return false, fmt.Sprintf("no relation partitions on %q (all broadcast or missing the attribute)", g.attr)
	}
	allPart := npart == len(g.part)
	switch plan.Strategy {
	case engine.StrategyExpression, engine.StrategyDirect:
		if plan.Tree == nil {
			return false, "plan has no join tree"
		}
		if _, clean := treeClean(plan.Tree, g.partCanon); !clean {
			return false, "a join-tree subtree holds only broadcast relations and would be recomputed per shard"
		}
		return true, ""
	case engine.StrategyWCOJ:
		if !allPart {
			return false, fmt.Sprintf("leapfrog needs every relation partitioned on %q (broadcast tries would be charged per shard)", g.attr)
		}
		return true, ""
	case engine.StrategyAcyclic:
		if !allPart {
			return false, fmt.Sprintf("the full-reducer pipeline needs every relation partitioned on %q", g.attr)
		}
		return true, ""
	case engine.StrategyProgram:
		if !allPart {
			return false, fmt.Sprintf("the program route needs every relation partitioned on %q", g.attr)
		}
		if plan.Derivation == nil || plan.Derivation.Program == nil {
			return false, "plan has no derived program"
		}
		if stmt, ok := programRetains(plan.Derivation.Program, g.attr); !ok {
			return false, fmt.Sprintf("program statement %q drops partition attribute %q", stmt, g.attr)
		}
		return true, ""
	case engine.StrategyReduceThenJoin:
		return false, "fixpoint reduction rounds are instance-local, so per-shard charges cannot sum to the sequential total"
	default:
		return false, fmt.Sprintf("no cleanliness analysis for strategy %s", plan.Strategy)
	}
}

// treeClean walks a join tree, returning whether the subtree holds a
// partitioned leaf and whether every internal node below (and including)
// it does. partCanon indexes leaves in the plan's canonical edge order.
func treeClean(t *jointree.Tree, partCanon []bool) (hasPart, clean bool) {
	if t.IsLeaf() {
		if t.Leaf < 0 || t.Leaf >= len(partCanon) {
			return false, false
		}
		return partCanon[t.Leaf], true
	}
	lp, lc := treeClean(t.Left, partCanon)
	rp, rc := treeClean(t.Right, partCanon)
	has := lp || rp
	return has, lc && rc && has
}

// programRetains dataflows "does this relation's schema retain attr"
// through the program's statements. Inputs are assumed to retain attr (the
// caller established every relation is partitioned on it). It returns the
// first statement whose head loses attr, or ok = true.
func programRetains(p *program.Program, attr string) (string, bool) {
	has := make(map[string]bool, len(p.Inputs)+len(p.Stmts))
	for _, name := range p.Inputs {
		has[name] = true
	}
	for _, st := range p.Stmts {
		var h bool
		switch st.Op {
		case program.OpProject:
			h = has[st.Arg1] && st.Proj.Contains(attr)
		case program.OpJoin:
			h = has[st.Arg1] || has[st.Arg2]
		case program.OpSemijoin:
			// The head is Arg1 filtered by Arg2; its schema is Arg1's.
			h = has[st.Arg1]
		}
		if !h {
			return st.String(), false
		}
		has[st.Head] = h
	}
	return "", true
}
