package shard

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/program"
)

// CleanFor reports whether the plan scatters cleanly over this group:
// whether running it independently per shard yields results that are
// disjoint and complete AND governor charges that sum to exactly the
// sequential execution's. When it returns false the reason names what
// breaks, and Run executes the plan unsharded instead — parity then holds
// trivially.
//
// Every plan is a program, so the analysis is one dataflow over
// plan.Program, tracking per variable whether it is partitioned on the
// partition attribute A: its tuples carry A and each shard holds exactly
// those hashing to it. Inputs are partitioned or broadcast as the group
// decided. A statement whose head is partitioned computes, on each shard,
// that shard's slice of the sequential head, so its per-shard charges sum
// to the sequential charge; a head that is not would be recomputed (or
// half-computed) on every shard and charged per shard. So every statement
// must produce a partitioned head:
//
//   - a join is clean when either operand is partitioned — its tuples carry
//     that operand's A value, and a broadcast partner is whole on every
//     shard;
//   - a semijoin's head is its first operand filtered, so it is partitioned
//     exactly when that operand is;
//   - a projection must keep A: one that drops it makes per-shard heads
//     collide across shards (the same projected tuple arises on several
//     shards and is charged on each), breaking charge parity even though
//     the merged result would dedup correctly;
//   - a multiway (leapfrog) statement charges every operand's trie, so it
//     needs every operand partitioned — a broadcast operand's trie would be
//     charged once per shard.
//
// No plan is judged by its strategy: each shard runs the plan's program as
// given, so the program alone decides.
func (g *Group) CleanFor(plan *engine.Plan) (bool, string) {
	if g.n == 1 {
		return true, ""
	}
	if g.PartitionedCount() == 0 {
		return false, fmt.Sprintf("no relation partitions on %q (all broadcast or missing the attribute)", g.attr)
	}
	p := plan.Program
	part := make(map[string]bool, len(p.Inputs)+len(p.Stmts))
	for i, name := range p.Inputs {
		part[name] = g.partCanon[i]
	}
	for _, st := range p.Stmts {
		var ok bool
		switch st.Op {
		case program.OpJoin:
			ok = part[st.Arg1] || part[st.Arg2]
		case program.OpSemijoin:
			ok = part[st.Arg1]
		case program.OpProject:
			ok = part[st.Arg1] && st.Proj.Contains(g.attr)
		case program.OpMultiway:
			ok = true
			for _, arg := range st.Args {
				ok = ok && part[arg]
			}
			if !ok {
				return false, fmt.Sprintf("leapfrog statement %q needs every operand partitioned on %q (broadcast tries would be charged per shard)", st, g.attr)
			}
		}
		if !ok {
			return false, fmt.Sprintf("statement %q would not be partitioned on %q, so each shard would charge it again", st, g.attr)
		}
		part[st.Head] = true
	}
	if !part[p.Output] {
		return false, fmt.Sprintf("the output %q is a broadcast relation", p.Output)
	}
	return true, ""
}
