package engine

import (
	"fmt"
	"strings"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// Plan is a reusable execution plan for one database scheme: the outcome of
// strategy resolution and optimizer search, detached from any particular
// instance. The paper's Theorems 1–2 are exactly the license for this
// reuse — a program is derived once per scheme and computes ⋈D for *every*
// database over it, quasi-optimally — so a Plan is the natural cache entry
// (see internal/plancache).
//
// Every plan is a program: PlanFor compiles whatever the strategy chose —
// a derived program, a join tree, the acyclic pipeline, a multiway leapfrog
// join — into Program once, and ExecutePlan runs it on the one executor.
//
// Plans are expressed in the scheme's canonical edge order
// (hypergraph.CanonicalOrder): PlanFor permutes the database into canonical
// order before searching, and ExecutePlan permutes again at run time, so one
// plan serves every database whose scheme has the same Fingerprint
// regardless of how its relations happen to be ordered.
//
// A Plan is immutable after PlanFor returns and safe for concurrent
// ExecutePlan calls.
type Plan struct {
	// Fingerprint is the canonical scheme key the plan was derived for
	// (hypergraph.Fingerprint).
	Fingerprint string
	// Strategy is the resolved execution route — never StrategyAuto.
	Strategy Strategy
	// Tree is the optimized join expression in canonical edge order: the
	// expression the expression strategy compiles, whose joins
	// reduce-then-join appends to its semijoin round, and the source
	// expression Algorithm 1/2 derived from for the program strategy. It is
	// nil for the acyclic pipeline and the leapfrog join.
	Tree *jointree.Tree
	// Derivation carries the CPF tree and derived program for
	// StrategyProgram (Algorithms 1 and 2, run once at plan time).
	Derivation *core.Derivation
	// Program is what ExecutePlan runs, over inputs named
	// jointree.SchemeNames of the canonical scheme: the derived program, the
	// tree's joins (Tree.Program), one pairwise semijoin round followed by
	// the tree's joins for reduce-then-join, the acyclic pipeline
	// (acyclic.JoinProgram), or one multiway statement over every relation
	// for wcoj. Like everything above it, it depends only on the scheme.
	Program *program.Program
	// Notes records how the plan was obtained (search used, bound factors).
	Notes []string
	// text is Report.Plan: how Program was obtained, then its statements.
	text string
}

// Resolve returns the strategy Auto resolves to for the given scheme — the
// first rung of its DegradationLadder: the classical acyclic pipeline when
// the scheme is acyclic, otherwise the paper's derived program. Non-Auto
// strategies resolve to themselves.
func Resolve(h *hypergraph.Hypergraph, s Strategy) Strategy {
	return DegradationLadder(s, h.Acyclic())[0]
}

// Strategies lists every selectable strategy, Auto first.
func Strategies() []Strategy {
	return []Strategy{
		StrategyAuto, StrategyProgram, StrategyExpression,
		StrategyReduceThenJoin, StrategyAcyclic, StrategyWCOJ,
	}
}

// StrategyNames lists the parseable strategy names, in Strategies order —
// the canonical enumeration for CLI usage strings and error messages.
func StrategyNames() []string {
	all := Strategies()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.String()
	}
	return names
}

// ParseStrategy parses a strategy name as printed by Strategy.String. The
// error enumerates every valid name.
func ParseStrategy(s string) (Strategy, error) {
	for _, cand := range Strategies() {
		if cand.String() == s {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown strategy %q (valid strategies: %s)", s, strings.Join(StrategyNames(), ", "))
}

// canonicalize permutes db into canonical edge order, returning the
// canonical database and its hypergraph. When the database is already
// canonical it is returned as-is.
func canonicalize(db *relation.Database, h *hypergraph.Hypergraph) (*relation.Database, *hypergraph.Hypergraph, error) {
	perm := h.CanonicalOrder()
	ordered := true
	for i, p := range perm {
		if p != i {
			ordered = false
			break
		}
	}
	if ordered {
		return db, h, nil
	}
	cdb, err := db.Restrict(perm)
	if err != nil {
		return nil, nil, err
	}
	return cdb, hypergraph.OfScheme(cdb), nil
}

// PlanFor derives a reusable plan for db's scheme under the given options:
// it resolves the strategy, runs whatever optimizer search the strategy
// needs (a search over its catalog's tuple budget is a govern.ErrTupleBudget
// abort), runs Algorithms 1 and 2 for the program route, and compiles the
// outcome into the plan's Program. Execution limits in Options are ignored
// here; they bind at ExecutePlan time. The instance's statistics steer the
// search, but the returned plan is valid for every database over the same
// scheme (Theorem 1) and quasi-optimal relative to the found expression on
// all of them (Theorem 2).
func PlanFor(db *relation.Database, opts Options) (*Plan, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	h := hypergraph.OfScheme(db)
	cdb, ch, err := canonicalize(db, h)
	if err != nil {
		return nil, err
	}
	p := &Plan{Fingerprint: h.Fingerprint(), Strategy: Resolve(h, opts.Strategy)}
	var header string
	switch p.Strategy {
	case StrategyAcyclic:
		if !ch.Acyclic() {
			return nil, fmt.Errorf("engine: acyclic strategy requires an acyclic scheme, got %s", ch)
		}
		if header, err = p.compileAcyclic(ch); err != nil {
			return nil, err
		}
		p.Notes = append(p.Notes, "no intermediate exceeds the output on the reduced database")
	case StrategyWCOJ:
		p.Program = leapfrogProgram(ch)
		p.Notes = append(p.Notes, "variable order derived greedily: connected prefixes first, ties to the attribute on most edges")
	case StrategyExpression, StrategyReduceThenJoin:
		tree, how, err := bestTree(cdb, exprSpace(ch))
		if err != nil {
			return nil, err
		}
		p.Tree = tree
		p.Notes = append(p.Notes, "optimized by "+how)
		if p.Strategy == StrategyReduceThenJoin {
			// A semijoin never removes a tuple of ⋈D, so the tree's joins
			// over the reduced inputs still compute it (Theorem 1).
			p.Program = pairwiseRound(ch)
			p.Program.Output = tree.AppendJoins(p.Program, p.Program.Inputs)
			header = "one pairwise semijoin round, then " + tree.String(ch) + "\n"
		}
	case StrategyProgram:
		tree, how, err := bestTree(cdb, optimizer.SpaceAll)
		if err != nil {
			return nil, err
		}
		p.Tree = tree
		p.Notes = append(p.Notes, "optimized by "+how)
		if !ch.Connected(ch.Full()) {
			// Algorithms 1/2 need a connected scheme; expression evaluation
			// handles products natively.
			p.Strategy = StrategyExpression
			p.Notes = append(p.Notes, "scheme disconnected: fell back to expression evaluation")
			break
		}
		d, err := core.DeriveFromTree(tree, ch, nil)
		if err != nil {
			return nil, err
		}
		projects, joins, semijoins := d.Program.OpCounts()
		p.Derivation, p.Program = d, d.Program
		header = "source expression: " + tree.String(ch) + "\n"
		p.Notes = append(p.Notes,
			fmt.Sprintf("program: %d projections, %d joins, %d semijoins", projects, joins, semijoins),
			fmt.Sprintf("Theorem 2 bound factor r(a+5) = %d", d.QuasiFactor),
		)
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", p.Strategy)
	}
	if p.Program == nil {
		// The expression plans: the tree compiled to its joins.
		p.Program = p.Tree.Program(ch)
		header = p.Tree.String(ch) + "\n"
	}
	p.text = header + p.Program.String()
	return p, nil
}

// compileAcyclic sets the plan's program to the full-reducer pipeline for
// the acyclic scheme ch and returns the plan text's header.
func (p *Plan) compileAcyclic(ch *hypergraph.Hypergraph) (string, error) {
	prog, jt, err := acyclic.JoinProgram(ch)
	if err != nil {
		return "", err
	}
	p.Program = prog
	return "full reducer; monotone expression: " + acyclic.MonotoneTree(jt).String(ch) + "\n", nil
}

// pairwiseRound is one round of pairwise semijoin reduction as a program:
// R_i := R_i ⋉ R_j for every ordered pair of distinct overlapping relations,
// i the outer and j the inner index, over inputs jointree.SchemeNames(h).
// Its Output is unset.
func pairwiseRound(h *hypergraph.Hypergraph) *program.Program {
	p := &program.Program{Inputs: jointree.SchemeNames(h)}
	for i, ri := range p.Inputs {
		for j, rj := range p.Inputs {
			if i != j && h.Edge(i).Overlaps(h.Edge(j)) {
				p.Stmts = append(p.Stmts, program.Stmt{Op: program.OpSemijoin, Head: ri, Arg1: ri, Arg2: rj})
			}
		}
	}
	return p
}

// leapfrogProgram compiles one multiway statement over every edge of ch,
// along its greedy variable order (wcoj.VariableOrder).
func leapfrogProgram(ch *hypergraph.Hypergraph) *program.Program {
	p := &program.Program{Inputs: jointree.SchemeNames(ch)}
	stmt := program.Stmt{
		Op: program.OpMultiway, Head: p.FreshVar("W"),
		Args: append([]string(nil), p.Inputs...), Order: wcoj.VariableOrder(ch),
	}
	p.Stmts, p.Output = []program.Stmt{stmt}, stmt.Head
	return p
}

// ExecutePlan runs a previously derived plan against db, which must be over
// the same scheme (equal Fingerprint; any edge order). No optimizer search
// or algorithm derivation happens here — this is the serving hot path: the
// plan's Program runs on the program executor, the one path every strategy
// takes. Options.Limits and Options.Workers apply; Options.Strategy is
// ignored (the plan fixed it).
// The plan is not mutated, so concurrent ExecutePlan calls on one plan are
// safe — including parallel executions of the same cached plan, each with
// its own governor and worker pool.
func ExecutePlan(db *relation.Database, plan *Plan, opts Options) (rep *Report, err error) {
	if plan == nil {
		return nil, fmt.Errorf("engine: nil plan")
	}
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	h := hypergraph.OfScheme(db)
	if fp := h.Fingerprint(); fp != plan.Fingerprint {
		return nil, fmt.Errorf("engine: plan fingerprint %q does not match database scheme %q", plan.Fingerprint, fp)
	}
	cdb, _, err := canonicalize(db, h)
	if err != nil {
		return nil, err
	}
	gov := newGovernor(opts)
	if opts.Trace != nil {
		span := opts.Trace.Child(obs.KindAttempt, "execute plan: "+plan.Strategy.String())
		gov.SetSpan(span)
		defer func() {
			if err != nil {
				span.Note("failed: %v", err)
			}
			span.End()
		}()
	}
	if _, err := gov.Begin("engine.strategy"); err != nil {
		return nil, err
	}
	if rep, err = runPlan(cdb, plan, gov, opts); err != nil {
		return nil, err
	}
	rep.Strategy = plan.Strategy
	rep.Plan = plan.text
	// Append the plan-time notes without mutating the shared plan.
	rep.Notes = append(rep.Notes, plan.Notes...)
	rep.Produced = gov.Produced()
	rep.Parallelism = opts.workerCount()
	return rep, nil
}
