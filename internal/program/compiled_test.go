package program_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// Facets of the differential harness for the plans compiled to programs:
// join trees (jointree.Tree.Program), the acyclic pipeline and Yannakakis
// (acyclic.JoinProgram, YannakakisProgram, Reduce), the pairwise
// reduction's round program (engine.PairwiseReduceGoverned), and the
// programs built on the multiway statement (the wcoj plan, and a multiway
// core ahead of binary joins). Each
// runs over the shared case set at every worker count, with the range-split
// path forced on, against the tuple-map references: Tree.Eval and the
// oracle.

// optimizerTree is the tree the expression strategies run: the cheapest CPF
// tree (any tree on a disconnected scheme), exact when feasible.
func optimizerTree(t *testing.T, c diffCase) *jointree.Tree {
	t.Helper()
	space := optimizer.SpaceCPF
	if !c.h.Connected(c.h.Full()) {
		space = optimizer.SpaceAll
	}
	cat := optimizer.NewCatalog(c.db, 0)
	if c.h.Len() <= optimizer.MaxExactRelations {
		if plan, err := optimizer.Optimal(cat, space); err == nil {
			return plan.Tree
		}
	}
	plan, err := optimizer.Greedy(cat, space == optimizer.SpaceCPF)
	if err != nil {
		t.Fatalf("%s: optimizer: %v", c.name, err)
	}
	return plan.Tree
}

// TestCompiledTreesMatchEval (facet a): a tree compiled to a join-only
// program — a random tree and the optimizer's CPF tree per case — computes
// Tree.Eval's result at Tree.Eval's cost, charges what the oracle charges,
// passes a budget of exactly that and aborts one tuple under it, and returns
// the same rows in the same order at every worker count.
func TestCompiledTreesMatchEval(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	// Beside the shared small cases, one large input: the Example 3 cycle at
	// q = 14, whose cheapest CPF tree materializes over 10⁵ intermediates.
	spec, err := workload.Example3(14)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	example3 := diffCase{name: "Example3(q=14)", h: hypergraph.OfScheme(cycle), db: cycle}
	for _, c := range append(differentialCases(t), example3) {
		trees := map[string]*jointree.Tree{"optimizer": optimizerTree(t, c)}
		if c.tree != nil {
			trees["random"] = c.tree
		}
		for kind, tree := range trees {
			name := fmt.Sprintf("%s, %s tree %s", c.name, kind, tree.String(c.h))
			p := tree.Program(c.h)
			want, wantCost := tree.Eval(c.db)
			oracleG := unlimited()
			if _, err := p.ApplyOracle(c.db, oracleG); err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			if int64(wantCost-c.db.TotalTuples()) != oracleG.Produced() {
				t.Fatalf("%s: Eval generated %d tuples, oracle charged %d", name, wantCost-c.db.TotalTuples(), oracleG.Produced())
			}
			var firstRows []relation.Tuple
			for _, w := range workerSweep {
				g := unlimited()
				got, err := p.ApplyParallelGoverned(c.db, g, w)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", name, w, err)
				}
				if !got.Output.Equal(want) || got.Cost != wantCost || g.Produced() != oracleG.Produced() {
					t.Fatalf("%s, %d workers: %d tuples cost %d charged %d; Eval %d tuples cost %d, oracle charged %d",
						name, w, got.Output.Len(), got.Cost, g.Produced(), want.Len(), wantCost, oracleG.Produced())
				}
				if firstRows == nil {
					firstRows = got.Output.Rows()
				} else if !sameOrder(got.Output.Rows(), firstRows) {
					t.Fatalf("%s, %d workers: rows come back in a different order than with one worker", name, w)
				}
				if total := oracleG.Produced(); total > 1 { // a budget of 0 means unlimited
					if _, err := p.ApplyParallelGoverned(c.db, govern.New(govern.Limits{MaxTuples: total, CheckEvery: 1}), w); err != nil {
						t.Fatalf("%s, %d workers: budget == total must pass, got %v", name, w, err)
					}
					res, err := p.ApplyParallelGoverned(c.db, govern.New(govern.Limits{MaxTuples: total - 1, CheckEvery: 1}), w)
					if res != nil || !errors.Is(err, govern.ErrTupleBudget) {
						t.Fatalf("%s, %d workers: budget == total-1 gave %v; want ErrTupleBudget and no result", name, w, err)
					}
				}
			}
		}
	}
}

// sameOrder reports whether two row lists are equal element by element.
func sameOrder(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestAcyclicProgramsMatchOracle (facet b): on every acyclic case, the
// pipeline (acyclic.JoinGoverned, and JoinProgram at every worker count),
// Yannakakis (YannakakisGoverned and YannakakisProgram) and Reduce equal the
// oracle in result, cost and charge; Reduce leaves every relation the
// projection of ⋈D onto its scheme; and on the reduced inputs every join
// head of the monotone expression is at most |⋈D| — the monotone property.
func TestAcyclicProgramsMatchOracle(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	tested := 0
	for _, c := range differentialCases(t) {
		if !c.h.Acyclic() {
			continue
		}
		tested++
		full := c.db.Join()
		out := relation.NewAttrSet(c.h.Attrs()[:len(c.h.Attrs())/2]...)
		joinP, _, err := acyclic.JoinProgram(c.h)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		yannP, err := acyclic.YannakakisProgram(c.h, out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		public := map[*program.Program]func(*govern.Governor) (*relation.Relation, int, error){
			joinP: func(g *govern.Governor) (*relation.Relation, int, error) { return acyclic.JoinGoverned(c.db, g) },
			yannP: func(g *govern.Governor) (*relation.Relation, int, error) {
				return acyclic.YannakakisGoverned(c.db, out, g)
			},
		}
		for p, run := range public {
			oracleG := unlimited()
			want, err := p.ApplyOracle(c.db, oracleG)
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			g := unlimited()
			got, cost, err := run(g)
			if err != nil || !got.Equal(want.Output) || cost != want.Cost || g.Produced() != oracleG.Produced() {
				t.Fatalf("%s: %s: cost %d charged %d (err %v); oracle cost %d charged %d (or results differ)\n%s",
					c.name, p.Output, cost, g.Produced(), err, want.Cost, oracleG.Produced(), p)
			}
			for _, w := range workerSweep {
				g := unlimited()
				res, err := p.ApplyParallelGoverned(c.db, g, w)
				if err != nil || !res.Output.Equal(want.Output) || res.Cost != want.Cost || g.Produced() != oracleG.Produced() {
					t.Fatalf("%s, %d workers: program diverges from the oracle (err %v)\n%s", c.name, w, err, p)
				}
			}
		}
		if got, _, _ := acyclic.JoinGoverned(c.db, nil); !got.Equal(full) {
			t.Fatalf("%s: pipeline result is not ⋈D", c.name)
		}
		if got, _, _ := acyclic.Yannakakis(c.db, out); !got.Equal(relation.MustProject(full, out)) {
			t.Fatalf("%s: Yannakakis result is not π_%s ⋈D", c.name, out)
		}

		reducer, _, err := acyclic.FullReducer(c.h)
		if err != nil {
			t.Fatal(err)
		}
		env, trace, err := reducer.ExecuteOracle(c.db, nil)
		if err != nil {
			t.Fatal(err)
		}
		reduced, cost, err := acyclic.Reduce(c.db)
		if err != nil {
			t.Fatalf("%s: Reduce: %v", c.name, err)
		}
		if cost != c.db.TotalTuples()+program.Generated(trace) {
			t.Fatalf("%s: Reduce cost %d, oracle %d", c.name, cost, c.db.TotalTuples()+program.Generated(trace))
		}
		for i, name := range reducer.Inputs {
			r := reduced.Relation(i)
			if !r.Equal(env[name]) || !r.Equal(relation.MustProject(full, r.Schema().AttrSet())) {
				t.Fatalf("%s: reduced %s differs from the oracle's or from π(⋈D)", c.name, name)
			}
		}
		mono, err := joinP.ApplyOracle(c.db, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range mono.Trace {
			if step.Stmt.Op == program.OpJoin && step.Size > full.Len() {
				t.Fatalf("%s: monotone join head %s has %d tuples, ⋈D has %d", c.name, step.Stmt, step.Size, full.Len())
			}
		}
	}
	if tested < 20 {
		t.Fatalf("only %d acyclic cases", tested)
	}
}

// TestPairwiseReduceMatchesOracleRounds (facet c):
// engine.PairwiseReduceGoverned equals re-running its round program —
// R_i := R_i ⋉ R_j for every ordered overlapping pair, i outer — on the
// oracle until a round shrinks nothing: same rounds, removed count, cost, and
// reduced relations. reduce-then-join reports the same cost, result and notes
// at every worker count.
func TestPairwiseReduceMatchesOracleRounds(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	for _, c := range differentialCases(t) {
		names := jointree.SchemeNames(c.h)
		round := &program.Program{Inputs: names, Output: names[0]}
		for i := range names {
			for j := range names {
				if i != j && c.h.Edge(i).Overlaps(c.h.Edge(j)) {
					round.Stmts = append(round.Stmts, program.Stmt{Op: program.OpSemijoin, Head: names[i], Arg1: names[i], Arg2: names[j]})
				}
			}
		}
		db, rounds, cost := c.db, 0, 0
		for {
			rounds++
			env, trace, err := round.ExecuteOracle(db, nil)
			if err != nil {
				t.Fatalf("%s: oracle round: %v", c.name, err)
			}
			cost += program.Generated(trace)
			rels := make([]*relation.Relation, len(names))
			for i, name := range names {
				rels[i] = env[name]
			}
			next := relation.MustDatabase(rels...)
			if next.TotalTuples() == db.TotalTuples() {
				break
			}
			db = next
		}
		red, err := engine.PairwiseReduceGoverned(c.db, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		removed := c.db.TotalTuples() - db.TotalTuples()
		if red.Rounds != rounds || red.Removed != removed || red.Cost != cost {
			t.Fatalf("%s: %d rounds, %d removed, cost %d; oracle %d, %d, %d",
				c.name, red.Rounds, red.Removed, red.Cost, rounds, removed, cost)
		}
		for i := range names {
			if !red.Database.Relation(i).Equal(db.Relation(i)) {
				t.Fatalf("%s: reduced relation %d differs from the oracle's", c.name, i)
			}
		}
		// The reduce-then-join plan reduces in the scheme's canonical edge
		// order, and a round's charge depends on its semijoin order.
		cdb, err := c.db.Restrict(c.h.CanonicalOrder())
		if err != nil {
			t.Fatal(err)
		}
		cred, err := engine.PairwiseReduceGoverned(cdb, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var first *engine.Report
		for _, w := range workerSweep {
			rep, err := engine.Join(c.db, engine.Options{Strategy: engine.StrategyReduceThenJoin, Workers: w})
			if err != nil {
				t.Fatalf("%s, %d workers: reduce-then-join: %v", c.name, w, err)
			}
			if first == nil {
				first = rep
				if want := c.db.TotalTuples() + cred.Cost; rep.Cost < int64(want) {
					t.Fatalf("%s: reduce-then-join cost %d below inputs + reduction %d", c.name, rep.Cost, want)
				}
				continue
			}
			if !rep.Result.Equal(first.Result) || rep.Cost != first.Cost || fmt.Sprint(rep.Notes) != fmt.Sprint(first.Notes) {
				t.Fatalf("%s, %d workers: reduce-then-join report differs from one worker's", c.name, w)
			}
		}
	}
}

// TestLeapfrogPlansMatchOracle (facet d): the engine's wcoj plans, and a
// multiway statement on a cyclic core ahead of binary joins (mixedProgram),
// run as programs — the wcoj plan is one multiway statement — compute ⋈D
// (Theorem 1) and equal the tuple oracle in output, cost and every head at
// every worker count. Their governor charge is wcoj.JoinGoverned's for each
// multiway statement plus every other head, and a MaxTuples budget of
// exactly that total, or a MaxIntermediateTuples cap of exactly the largest
// single operator's charge, passes while one tuple less aborts — in the
// oracle and at every worker count alike.
func TestLeapfrogPlansMatchOracle(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	type leapfrogCase struct {
		name string
		p    *program.Program
		db   *relation.Database
	}
	var cases []leapfrogCase
	for _, c := range append(differentialCases(t), skewedTrianglePendants()) {
		cdb, err := c.db.Restrict(c.h.CanonicalOrder())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.PlanFor(c.db, engine.Options{Strategy: engine.StrategyWCOJ})
		if err != nil {
			t.Fatalf("%s, wcoj: %v", c.name, err)
		}
		cases = append(cases, leapfrogCase{c.name + ", wcoj", plan.Program, cdb})
	}
	mixed := skewedTrianglePendants()
	cases = append(cases, leapfrogCase{mixed.name + ", multiway core then joins", mixedProgram(), mixed.db})
	for _, c := range cases {
		p, name, cdb := c.p, c.name, c.db
		full := cdb.Join()
		oracleG := unlimited()
		want, err := p.ApplyOracle(cdb, oracleG)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !want.Output.Equal(full) {
			t.Fatalf("%s: %d tuples, ⋈D has %d\n%s", name, want.Output.Len(), full.Len(), p)
		}
		charge, widest := leapfrogCharges(t, p, cdb, want.Trace)
		if oracleG.Produced() != charge {
			t.Fatalf("%s: oracle charged %d, wcoj.JoinGoverned plus the heads account for %d", name, oracleG.Produced(), charge)
		}
		runs := map[string]func(*govern.Governor) (*program.Result, error){
			"oracle": func(g *govern.Governor) (*program.Result, error) { return p.ApplyOracle(cdb, g) },
		}
		for _, w := range workerSweep {
			g := unlimited()
			got, err := p.ApplyParallelGoverned(cdb, g, w)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, w, err)
			}
			if !got.Output.Equal(want.Output) || got.Cost != want.Cost || g.Produced() != charge {
				t.Fatalf("%s, %d workers: %d tuples cost %d charged %d; oracle %d tuples cost %d charged %d",
					name, w, got.Output.Len(), got.Cost, g.Produced(), want.Output.Len(), want.Cost, charge)
			}
			for i, step := range got.Trace {
				if step.Size != want.Trace[i].Size || !step.Schema.Equal(want.Trace[i].Schema) {
					t.Fatalf("%s, %d workers: statement %d (%s) head %s/%d, oracle %s/%d", name, w, i+1,
						step.Stmt, step.Schema, step.Size, want.Trace[i].Schema, want.Trace[i].Size)
				}
			}
			runs[fmt.Sprintf("%d workers", w)] = func(g *govern.Governor) (*program.Result, error) {
				return p.ApplyParallelGoverned(cdb, g, w)
			}
		}
		for who, run := range runs {
			for _, b := range []struct {
				limit string
				at    int64
				lim   func(int64) govern.Limits
			}{
				{"MaxTuples", charge, func(n int64) govern.Limits { return govern.Limits{MaxTuples: n, CheckEvery: 1} }},
				{"MaxIntermediateTuples", widest, func(n int64) govern.Limits { return govern.Limits{MaxIntermediateTuples: n, CheckEvery: 1} }},
			} {
				if b.at < 2 {
					continue // a limit of 0 means unlimited
				}
				if _, err := run(govern.New(b.lim(b.at))); err != nil {
					t.Fatalf("%s, %s: %s == %d must pass, got %v", name, who, b.limit, b.at, err)
				}
				if res, err := run(govern.New(b.lim(b.at - 1))); res != nil || !errors.Is(err, govern.ErrTupleBudget) {
					t.Fatalf("%s, %s: %s == %d gave %v; want ErrTupleBudget and no result", name, who, b.limit, b.at-1, err)
				}
			}
		}
	}
}

// skewedTrianglePendants is a Zipf-skewed triangle AB, BC, AC with two
// selective pendant edges CD, DE hanging off C, each holding one tuple per
// fresh value.
func skewedTrianglePendants() diffCase {
	rng := rand.New(rand.NewSource(1))
	var rels []*relation.Relation
	for _, attrs := range [][]string{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		r := relation.New(relation.MustSchema(attrs...))
		z := rand.NewZipf(rng, 1.3, 1, 49)
		for i := 0; i < 200; i++ {
			_ = r.Insert(relation.Tuple{relation.Int(int64(z.Uint64())), relation.Int(int64(z.Uint64()))})
		}
		rels = append(rels, r)
	}
	for k, attrs := range [][]string{{"C", "D"}, {"D", "E"}} {
		r := relation.New(relation.MustSchema(attrs...))
		for i := 0; i < 500; i++ {
			_ = r.Insert(relation.Ints(int64(rng.Intn([]int{50, 500}[k])), int64(i)))
		}
		rels = append(rels, r)
	}
	db := relation.MustDatabase(rels...)
	return diffCase{name: "skewed triangle with pendants", h: hypergraph.OfScheme(db), db: db}
}

// mixedProgram is the multiway-then-join shape over skewedTrianglePendants'
// relations in their database order: one multiway statement over the
// triangle, its head then joined to CD and to DE.
func mixedProgram() *program.Program {
	p := &program.Program{Inputs: []string{"AB", "BC", "AC", "CD", "DE"}}
	p.Stmts = []program.Stmt{
		{Op: program.OpMultiway, Head: "W1", Args: p.Inputs[:3], Order: []string{"A", "B", "C"}},
		{Op: program.OpJoin, Head: "V1", Arg1: "W1", Arg2: "CD"},
		{Op: program.OpJoin, Head: "V2", Arg1: "V1", Arg2: "DE"},
	}
	p.Output = "V2"
	return p
}

// leapfrogCharges returns what a run of p over db must charge the governor —
// wcoj.JoinGoverned's charge over each multiway statement's operands (which
// engine plans bind to inputs) plus every other statement's head, read from
// trace — and the largest charge of any single operator scope: a head, a
// trie, or an enumeration.
func leapfrogCharges(t *testing.T, p *program.Program, db *relation.Database, trace []program.Step) (total, widest int64) {
	t.Helper()
	for i, s := range p.Stmts {
		head := int64(trace[i].Size)
		widest = max(widest, head)
		if s.Op != program.OpMultiway {
			total += head
			continue
		}
		rels := make([]*relation.Relation, len(s.Args))
		for k, arg := range s.Args {
			rels[k] = db.Relation(slices.Index(p.Inputs, arg))
			widest = max(widest, int64(rels[k].Len()))
		}
		g := unlimited()
		res, err := wcoj.JoinGoverned(relation.MustDatabase(rels...), s.Order, g, 1)
		if err != nil || int64(res.Output.Len()) != head {
			t.Fatalf("statement %d (%s): wcoj.JoinGoverned gave %v tuples (err %v), the statement %d", i+1, s, res, err, head)
		}
		total += g.Produced()
	}
	return total, widest
}
