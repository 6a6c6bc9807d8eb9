package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/engine/failpoint"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// Strategy selects how Join computes ⋈D.
type Strategy int

const (
	// StrategyAuto picks per database: the acyclic pipeline when the scheme
	// is acyclic; otherwise an optimized tree is derived into a program —
	// exactly optimal for small schemes, greedy-seeded beyond the exact
	// search limit.
	StrategyAuto Strategy = iota
	// StrategyProgram optimizes a join expression (exact DP when feasible,
	// greedy otherwise), normalizes it with Algorithm 1, derives a program
	// with Algorithm 2, and runs it — the paper's route.
	StrategyProgram
	// StrategyExpression evaluates the cheapest Cartesian-product-free join
	// expression directly — the classical heuristic the paper critiques.
	StrategyExpression
	// StrategyReduceThenJoin runs the pairwise semijoin reduction to a
	// fixpoint, then evaluates the cheapest CPF expression on the reduced
	// database — the classical generalization of "full-reduce then join".
	StrategyReduceThenJoin
	// StrategyAcyclic runs the full reducer plus a monotone join
	// expression; it fails on cyclic schemes.
	StrategyAcyclic
	// StrategyDirect joins the relations left to right with no
	// optimization; the baseline of baselines.
	StrategyDirect
	// StrategyWCOJ runs the worst-case-optimal Leapfrog Triejoin
	// (internal/wcoj): relations are trie-indexed along a global variable
	// order and ⋈D is computed attribute-by-attribute as a multiway
	// intersection, materializing no pairwise intermediate at all. On the
	// cyclic schemes where Example 3 makes every CPF expression unboundedly
	// suboptimal, this is the backend built for the job.
	StrategyWCOJ
	// StrategyHybrid is the statistics-driven chooser: per-relation sketches
	// (degree / distinct counts / equi-depth histograms, incrementally
	// maintained on the mutation path) estimate each route's §2.3 cost and
	// pick between the worst-case-optimal triejoin on the skewed cyclic
	// core, binary-join programs on the block executor elsewhere, or
	// a mixed plan stitching the two — wcoj on hypergraph.Core, its output
	// fed as a leaf into a binary tree over the pendant edges. Pure routes
	// charge the governor identically to their static rungs.
	StrategyHybrid
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyProgram:
		return "program"
	case StrategyExpression:
		return "cpf-expression"
	case StrategyReduceThenJoin:
		return "reduce-then-join"
	case StrategyAcyclic:
		return "acyclic"
	case StrategyDirect:
		return "direct"
	case StrategyWCOJ:
		return "wcoj"
	case StrategyHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures Join.
type Options struct {
	// Strategy selects the execution route (default StrategyAuto).
	Strategy Strategy
	// Budget caps the tuples the optimizer's catalog may materialize while
	// searching (0 = optimizer.DefaultBudget). It bounds planning only;
	// Limits bounds execution.
	Budget int64
	// Limits bounds execution itself: tuple budgets, a deadline, and a
	// cancellation context enforced inside every operator (zero value =
	// unlimited). Exceeding a limit aborts with a typed error
	// (govern.ErrTupleBudget, govern.ErrCanceled, govern.ErrDeadline).
	//
	// Under StrategyAuto, a blown tuple budget does not fail the call
	// outright: Join degrades along a strategy ladder (see DegradationLadder)
	// and records the fallback chain in Report.Notes. Explicit strategies
	// abort hard. Tuple budgets apply per attempt — each rung of the ladder
	// starts with fresh counters (an aborted attempt's intermediates are
	// discarded), while the deadline and context are absolute and shared.
	Limits govern.Limits
	// Workers enables governed intra-query parallelism with up to Workers
	// goroutines: ready program statements run concurrently over their
	// dependency DAG and their joins and semijoins probe in parallel row
	// ranges. Every plan but wcoj runs as a program on that executor — join
	// trees, the acyclic pipeline and the pairwise reduction included — and
	// wcoj partitions its outermost variable instead. All workers charge the
	// same governor budgets. 0 or 1 executes sequentially (the default);
	// results and costs are identical either way. Workers is honored by
	// direct Join calls and by cached-Plan execution.
	Workers int
	// Sketches, when non-nil, supplies StrategyHybrid's maintained
	// per-relation statistics (aligned with the database as passed: sketch i
	// describes relation i) plus the served-traffic correction feedback.
	// When nil, hybrid planning builds throwaway sketches by scanning the
	// database once.
	Sketches *optimizer.DBSketches
	// Hybrid tunes the hybrid chooser (zero value = defaults).
	Hybrid optimizer.HybridConfig
	// Trace, when non-nil, is the parent span the execution hangs its span
	// tree under: strategy resolution, one attempt span per strategy tried,
	// and per-phase / per-statement / per-variable children below each
	// attempt, every span carrying its wall time and the tuples the governor
	// charged during it. Tracing forces governor accounting on (so
	// Report.Produced is meaningful even without limits) and adds no cost at
	// all when nil.
	Trace *obs.Span
}

// workerCount normalizes Options.Workers: anything below 2 is sequential.
func (o Options) workerCount() int {
	if o.Workers <= 1 {
		return 1
	}
	return o.Workers
}

// Report is the outcome of Join: the result plus everything an EXPLAIN
// would show.
type Report struct {
	// Result is ⋈D.
	Result *relation.Relation
	// Strategy is the route actually taken (resolved from Auto).
	Strategy Strategy
	// Cost is the total §2.3 cost actually paid by execution: the input
	// relations plus every generated relation. Optimizer search work is
	// excluded; Options.Budget bounds that separately.
	Cost int64
	// Produced is the number of tuples the governor charged during the
	// winning execution attempt (0 when neither limits nor tracing were
	// set).
	Produced int64
	// TraceID identifies the query's span tree when tracing was enabled
	// (set by the serving layer; empty otherwise).
	TraceID string
	// Plan describes the executed plan: the join expression and, for the
	// program strategies, the derived statements.
	Plan string
	// Notes carries strategy-specific detail (reduction rounds, bound
	// factors, …).
	Notes []string
	// PlanCacheHit reports whether execution reused a cached plan instead of
	// running optimizer search (set by the serving layer; always false for
	// direct Join calls).
	PlanCacheHit bool
	// QueueWait is how long the query waited for a worker slot before
	// executing (set by the serving layer; zero for direct Join calls).
	QueueWait time.Duration
	// Parallelism is the intra-query worker count execution ran with
	// (1 = sequential).
	Parallelism int
	// Shards is the number of shards the query scattered across (set by the
	// sharding layer; 0 or 1 = executed unsharded). Cost and Produced are
	// the merged totals, corrected to match what one sequential execution
	// would have charged.
	Shards int
	// Steps carries per-statement timings for the program strategies (nil
	// for the expression and pipeline strategies, whose plans are not
	// statement lists). Under parallel execution concurrent steps overlap,
	// so their Walls sum to more than the query's elapsed time.
	Steps []StepTiming
}

// StepTiming is one executed program statement's contribution: its §2.3
// head cardinality and its wall-clock time.
type StepTiming struct {
	Stmt   string        `json:"stmt"`
	Tuples int           `json:"tuples"`
	Wall   time.Duration `json:"wall"`
}

// Explain renders the report for humans.
func (r *Report) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", r.Strategy)
	if r.TraceID != "" {
		fmt.Fprintf(&b, "trace:    %s\n", r.TraceID)
	}
	fmt.Fprintf(&b, "cost:     %d tuples (inputs + every generated relation)\n", r.Cost)
	fmt.Fprintf(&b, "result:   %d tuples\n", r.Result.Len())
	if r.PlanCacheHit {
		b.WriteString("plan cache: hit (no optimizer search)\n")
	}
	if r.QueueWait > 0 {
		fmt.Fprintf(&b, "queue wait: %s\n", r.QueueWait)
	}
	if r.Parallelism > 1 {
		fmt.Fprintf(&b, "parallelism: %d workers\n", r.Parallelism)
	}
	if r.Shards > 1 {
		fmt.Fprintf(&b, "shards:   %d (scatter-gather; cost and produced are merged totals)\n", r.Shards)
	}
	if len(r.Steps) > 0 {
		b.WriteString("steps:\n")
		for _, s := range r.Steps {
			fmt.Fprintf(&b, "  %-40s %8d tuples %12s\n", s.Stmt, s.Tuples, s.Wall.Round(time.Microsecond))
		}
	}
	if r.Plan != "" {
		b.WriteString("plan:\n")
		for _, line := range strings.Split(strings.TrimRight(r.Plan, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Join computes the natural join of the database under the given options.
//
// With Options.Limits set and StrategyAuto, Join runs the degradation
// ladder: strategies are tried in DegradationLadder order, a rung that
// exhausts its tuple budget (or the optimizer's search budget) falls
// through to the next, and the fallback chain is recorded in Report.Notes.
// A cancellation or deadline abort is final — there is no point retrying
// against an expired clock.
func Join(db *relation.Database, opts Options) (*Report, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	h := hypergraph.OfScheme(db)
	if opts.Strategy == StrategyAuto && opts.Limits.Enabled() {
		return joinLadder(db, h, opts)
	}
	strat := Resolve(h, opts.Strategy)
	if opts.Trace != nil {
		sp := opts.Trace.Child(obs.KindResolve, "resolve strategy")
		sp.Note("%s resolved to %s", opts.Strategy, strat)
		sp.End()
	}
	return runStrategy(db, h, strat, opts, newGovernor(opts))
}

// newGovernor builds the execution governor for one strategy attempt and
// wires the fault-injection registry into it. Tracing forces per-tuple
// accounting on so span charges and Report.Produced stay meaningful for
// unlimited executions.
func newGovernor(opts Options) *govern.Governor {
	gov := govern.New(opts.Limits)
	gov.SetFailpoint(failpoint.Check)
	if opts.Trace != nil {
		gov.Observe()
	}
	return gov
}

// tracedPhase runs one phase of a strategy attempt under a child span of
// the governor's current span, installed as the governor's span for the
// duration so the executor's spans nest under the phase. The phase span is
// charged the governor delta the phase produced minus what its descendants
// (the statement spans) already claimed. Untraced executions call fn with no
// overhead at all. The delta protocol is sound here because engine-level
// phases run sequentially: nothing else charges the governor during fn.
func tracedPhase(gov *govern.Governor, kind obs.Kind, name string, fn func() error) error {
	parent := gov.Span()
	if parent == nil {
		return fn()
	}
	sp := parent.Child(kind, name)
	defer sp.End()
	gov.SetSpan(sp)
	before := gov.Produced()
	err := fn()
	gov.SetSpan(parent)
	sp.AddTuples(gov.Produced() - before - sp.TupleTotal())
	if err != nil {
		sp.Note("failed: %v", err)
	}
	return err
}

// runStrategy executes one already-resolved (non-Auto) strategy under the
// given governor. The failpoint site "engine.strategy" fires once per
// attempt, before any work. When tracing is on, the whole attempt runs
// under an attempt span hung off Options.Trace, and the governor carries it
// down to the executors (govern.Governor.SetSpan).
func runStrategy(db *relation.Database, h *hypergraph.Hypergraph, strat Strategy, opts Options, gov *govern.Governor) (rep *Report, err error) {
	if opts.Trace != nil {
		span := opts.Trace.Child(obs.KindAttempt, "attempt: "+strat.String())
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
	switch strat {
	case StrategyProgram:
		rep, err = joinProgram(db, h, opts, gov)
	case StrategyExpression:
		rep, err = joinExpression(db, h, opts, gov)
	case StrategyReduceThenJoin:
		rep, err = reduceThenJoin(db, h, nil, opts, gov)
	case StrategyAcyclic:
		rep, err = joinAcyclic(db, h, opts, gov)
	case StrategyDirect:
		rep, err = joinDirect(db, h, opts, gov)
	case StrategyWCOJ:
		rep, err = joinWCOJ(db, h, opts, gov)
	case StrategyHybrid:
		rep, err = joinHybrid(db, h, opts, gov)
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", strat)
	}
	if err != nil {
		return nil, err
	}
	rep.Produced = gov.Produced()
	rep.Parallelism = opts.workerCount()
	return rep, nil
}

// runProgramTraced applies p to db on the program executor with the
// options' worker count, under executeTraced's span.
func runProgramTraced(p *program.Program, db *relation.Database, gov *govern.Governor, opts Options) (res *program.Result, err error) {
	err = executeTraced(gov, func() error {
		res, err = p.ApplyParallelGoverned(db, gov, opts.workerCount())
		return err
	})
	return res, err
}

// executeTraced runs fn — one call into the program executor — under an
// "execute program" span: the governor's span is swapped to the execute
// span for the duration so the executor's per-statement spans nest under
// it, then restored. The span's self time is the executor's work outside
// statements — encoding the inputs and decoding the output. The swap is
// safe because the executor's worker goroutines are spawned (and joined)
// strictly inside the call.
func executeTraced(gov *govern.Governor, fn func() error) error {
	parent := gov.Span()
	if parent == nil {
		return fn()
	}
	exec := parent.Child(obs.KindExecute, "execute program")
	gov.SetSpan(exec)
	err := fn()
	gov.SetSpan(parent)
	if err != nil {
		exec.Note("failed: %v", err)
	}
	exec.End()
	return err
}

// evalTree runs a join tree as its compiled program (jointree.Tree.Program)
// on the block executor under the attempt's "eval" phase span, returning
// ⋈D and the tree's §2.3 cost.
func evalTree(tree *jointree.Tree, db *relation.Database, h *hypergraph.Hypergraph, span string, gov *govern.Governor, opts Options) (*relation.Relation, int64, error) {
	var res *program.Result
	if err := tracedPhase(gov, obs.KindEval, span, func() (err error) {
		res, err = runProgramTraced(tree.Program(h), db, gov, opts)
		return err
	}); err != nil {
		return nil, 0, err
	}
	return res.Output, int64(res.Cost), nil
}

// stepTimings converts a program trace into Report.Steps.
func stepTimings(trace []program.Step) []StepTiming {
	out := make([]StepTiming, len(trace))
	for i, s := range trace {
		out[i] = StepTiming{Stmt: s.Stmt.String(), Tuples: s.Size, Wall: s.Wall}
	}
	return out
}

// DegradationLadder returns the strategy ladder governed Auto execution
// climbs for the given scheme, cheapest machinery first. On cyclic schemes
// it is the cheapest CPF expression, then fixpoint semijoin reduction
// followed by the cheapest CPF expression, then the worst-case-optimal
// Leapfrog Triejoin — which materializes no pairwise intermediate at all,
// exactly what blew the earlier rungs — and finally the paper's derived
// program, whose semijoin-bounded heads
// (Theorem 2 caps its cost at r(a+5) times the optimum) make it the most
// conservative machinery of all. On acyclic schemes the full-reducer
// pipeline is already monotone; only the program route remains behind it.
func DegradationLadder(h *hypergraph.Hypergraph) []Strategy {
	if h.Acyclic() {
		return []Strategy{StrategyAcyclic, StrategyProgram}
	}
	return []Strategy{StrategyExpression, StrategyReduceThenJoin, StrategyWCOJ, StrategyProgram}
}

// degradable reports whether an attempt's failure should fall through to
// the next rung: execution tuple budgets and optimizer search budgets
// degrade; cancellation, deadlines, and real errors are final.
func degradable(err error) bool {
	return errors.Is(err, govern.ErrTupleBudget) || errors.Is(err, optimizer.ErrBudget)
}

// joinLadder runs governed Auto execution down the degradation ladder.
// Tuple budgets are per attempt (each rung gets a fresh governor); the
// deadline and context are wall-clock–absolute, so they carry across
// rungs unchanged.
func joinLadder(db *relation.Database, h *hypergraph.Hypergraph, opts Options) (*Report, error) {
	ladder := DegradationLadder(h)
	if opts.Trace != nil {
		names := make([]string, len(ladder))
		for i, s := range ladder {
			names[i] = s.String()
		}
		sp := opts.Trace.Child(obs.KindResolve, "resolve strategy")
		sp.Note("governed auto: degradation ladder %s", strings.Join(names, " -> "))
		sp.End()
	}
	var chain []string
	for i, strat := range ladder {
		rep, err := runStrategy(db, h, strat, opts, newGovernor(opts))
		if err == nil {
			rep.Notes = append(chain, rep.Notes...)
			return rep, nil
		}
		if i == len(ladder)-1 || !degradable(err) {
			if len(chain) > 0 {
				return nil, fmt.Errorf("engine: degradation ladder exhausted after %d fallbacks: %w", len(chain), err)
			}
			return nil, err
		}
		chain = append(chain, fmt.Sprintf("degradation: %s aborted (%v); falling back to %s",
			strat, err, ladder[i+1]))
	}
	panic("engine: unreachable: ladder loop neither returned nor degraded")
}

// exprSpace is the search space of the expression strategies: CPF trees,
// or every tree on a disconnected scheme, where no CPF expression exists.
func exprSpace(h *hypergraph.Hypergraph) optimizer.Space {
	if h.Connected(h.Full()) {
		return optimizer.SpaceCPF
	}
	return optimizer.SpaceAll
}

// bestTree finds the cheapest join expression: exact DP when the scheme is
// small enough, greedy otherwise. The returned note names the search used.
func bestTree(db *relation.Database, h *hypergraph.Hypergraph, budget int64, space optimizer.Space) (*jointree.Tree, string, error) {
	cat := optimizer.NewCatalog(db, budget)
	if h.Len() <= optimizer.MaxExactRelations {
		plan, err := optimizer.Optimal(cat, space)
		if err == nil {
			return plan.Tree, fmt.Sprintf("exact %s-space DP (cost %d)", space, plan.Cost), nil
		}
		// Fall through to greedy on budget exhaustion.
	}
	plan, err := optimizer.Greedy(cat, space == optimizer.SpaceCPF)
	if err != nil {
		return nil, "", err
	}
	return plan.Tree, fmt.Sprintf("greedy (cost %d)", plan.Cost), nil
}

// joinProgram is the paper's route: optimize, CPFify, derive, execute.
func joinProgram(db *relation.Database, h *hypergraph.Hypergraph, opts Options, gov *govern.Governor) (*Report, error) {
	if !h.Connected(h.Full()) {
		// Algorithms 1/2 need a connected scheme; fall back to direct
		// evaluation per component would complicate the facade — join
		// expression evaluation handles products natively.
		rep, err := joinExpression(db, h, opts, gov)
		if err != nil {
			return nil, err
		}
		rep.Notes = append(rep.Notes, "scheme disconnected: fell back to expression evaluation")
		return rep, nil
	}
	var tree *jointree.Tree
	var how string
	var d *core.Derivation
	if err := tracedPhase(gov, obs.KindPlan, "optimize and derive program", func() (err error) {
		tree, how, err = bestTree(db, h, opts.Budget, optimizer.SpaceAll)
		if err != nil {
			return err
		}
		d, err = core.DeriveFromTree(tree, h, nil)
		return err
	}); err != nil {
		return nil, err
	}
	res, err := runProgramTraced(d.Program, db, gov, opts)
	if err != nil {
		return nil, err
	}
	projects, joins, semijoins := d.Program.OpCounts()
	notes := []string{
		"optimized by " + how,
		fmt.Sprintf("program: %d projections, %d joins, %d semijoins", projects, joins, semijoins),
		fmt.Sprintf("Theorem 2 bound factor r(a+5) = %d", d.QuasiFactor),
	}
	if w := opts.workerCount(); w > 1 {
		notes = append(notes, fmt.Sprintf("parallel DAG execution: %d statements, critical path %d, %d workers",
			d.Program.Len(), d.Program.CriticalPathLen(), w))
	}
	return &Report{
		Result:   res.Output,
		Strategy: StrategyProgram,
		Cost:     int64(res.Cost),
		Plan:     "source expression: " + tree.String(h) + "\n" + d.Program.String(),
		Steps:    stepTimings(res.Trace),
		Notes:    notes,
	}, nil
}

// joinExpression evaluates the cheapest CPF expression directly (falling
// back to the unrestricted space on disconnected schemes, where no CPF
// expression exists).
func joinExpression(db *relation.Database, h *hypergraph.Hypergraph, opts Options, gov *govern.Governor) (*Report, error) {
	var tree *jointree.Tree
	var how string
	if err := tracedPhase(gov, obs.KindPlan, "optimize expression", func() (err error) {
		tree, how, err = bestTree(db, h, opts.Budget, exprSpace(h))
		return err
	}); err != nil {
		return nil, err
	}
	out, cost, err := evalTree(tree, db, h, "evaluate expression", gov, opts)
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:   out,
		Strategy: StrategyExpression,
		Cost:     cost,
		Plan:     tree.String(h),
		Notes:    []string{"optimized by " + how},
	}, nil
}

// reduceThenJoin reduces pairwise to a fixpoint — the round program re-run
// on the block executor — then runs the tree's compiled program over the
// reduced blocks the last round returned; only the output is decoded. A nil
// tree is the cheapest CPF expression over the reduced database, searched
// for here (the Join path; a cached Plan fixed it already).
func reduceThenJoin(db *relation.Database, h *hypergraph.Hypergraph, tree *jointree.Tree, opts Options, gov *govern.Governor) (*Report, error) {
	var red *PairwiseReduction
	var blocks []*relation.ColBlock
	if err := tracedPhase(gov, obs.KindReduce, "pairwise semijoin reduction", func() (err error) {
		red, blocks, err = pairwiseReduce(db, h, 0, gov, opts.workerCount())
		return err
	}); err != nil {
		return nil, err
	}
	notes := []string{fmt.Sprintf("pairwise reduction: %d rounds, %d tuples removed", red.Rounds, red.Removed)}
	if tree == nil {
		reduced, err := db.Reduced(blocks)
		if err != nil {
			return nil, err
		}
		var how string
		if err := tracedPhase(gov, obs.KindPlan, "optimize expression", func() (err error) {
			tree, how, err = bestTree(reduced, h, opts.Budget, exprSpace(h))
			return err
		}); err != nil {
			return nil, err
		}
		notes = append(notes, "optimized by "+how)
	}
	p := tree.Program(h)
	var out *relation.Relation
	var generated int
	if err := tracedPhase(gov, obs.KindEval, "evaluate expression", func() error {
		return executeTraced(gov, func() error {
			bound, trace, err := p.Execute(blocks, gov, opts.workerCount())
			if err != nil {
				return err
			}
			out, generated = bound[p.Output].ToRelation(), program.Generated(trace)
			return nil
		})
	}); err != nil {
		return nil, err
	}
	return &Report{
		Result:   out,
		Strategy: StrategyReduceThenJoin,
		// The original inputs once, the reduction heads, the join heads: the
		// tree's leaves are the reduced relations the reduction paid for.
		Cost:  int64(db.TotalTuples() + red.Cost + generated),
		Plan:  tree.String(h),
		Notes: notes,
	}, nil
}

// joinAcyclic runs the classical full-reduce + monotone-join pipeline.
func joinAcyclic(db *relation.Database, h *hypergraph.Hypergraph, opts Options, gov *govern.Governor) (*Report, error) {
	out, cost, plan, err := runAcyclic(db, h, opts, gov)
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:   out,
		Strategy: StrategyAcyclic,
		Cost:     cost,
		Plan:     plan,
		Notes:    []string{"no intermediate exceeds the output on the reduced database"},
	}, nil
}

// runAcyclic runs the full-reducer pipeline — acyclic.JoinProgram, one
// program — on the block executor under the attempt's "pipeline" phase
// span. It returns ⋈D, the pipeline's §2.3 cost, and the plan line.
func runAcyclic(db *relation.Database, h *hypergraph.Hypergraph, opts Options, gov *govern.Governor) (*relation.Relation, int64, string, error) {
	var res *program.Result
	var jt *hypergraph.JoinTree
	if err := tracedPhase(gov, obs.KindPipeline, "full-reducer pipeline", func() error {
		p, t, err := acyclic.JoinProgram(h)
		if err != nil {
			return err
		}
		jt = t
		res, err = runProgramTraced(p, db, gov, opts)
		return err
	}); err != nil {
		return nil, 0, "", err
	}
	return res.Output, int64(res.Cost), "full reducer; monotone expression: " + acyclic.MonotoneTree(jt).String(h), nil
}

// joinWCOJ runs the worst-case-optimal Leapfrog Triejoin along the
// scheme's derived variable order.
func joinWCOJ(db *relation.Database, h *hypergraph.Hypergraph, opts Options, gov *govern.Governor) (*Report, error) {
	order := wcoj.VariableOrder(h)
	res, err := wcoj.JoinGoverned(db, order, gov, opts.workerCount())
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:   res.Output,
		Strategy: StrategyWCOJ,
		Cost:     int64(db.TotalTuples()) + int64(res.Output.Len()),
		Plan:     "leapfrog triejoin, variable order: " + strings.Join(order, " "),
		Notes:    wcojNotes(res, db),
	}, nil
}

// wcojNotes renders the WCOJ accounting shared by Join and ExecutePlan; db
// is the database the triejoin ran over (the core, on the hybrid mixed
// route).
func wcojNotes(res *wcoj.Result, db *relation.Database) []string {
	notes := []string{
		fmt.Sprintf("tries re-sort the %d input tuples; no pairwise intermediate is materialized (§2.3 cost = inputs + output)", res.TrieTuples),
		fmt.Sprintf("tries: %d resident, %d built", db.Len()-res.TriesBuilt, res.TriesBuilt),
	}
	if res.Workers > 1 {
		notes = append(notes, fmt.Sprintf("outermost variable's key range partitioned across %d workers", res.Workers))
	}
	return notes
}

// joinDirect folds the relations left to right.
func joinDirect(db *relation.Database, h *hypergraph.Hypergraph, opts Options, gov *govern.Governor) (*Report, error) {
	tree := leftDeep(db.Len())
	out, cost, err := evalTree(tree, db, h, "evaluate left-deep expression", gov, opts)
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:   out,
		Strategy: StrategyDirect,
		Cost:     cost,
		Plan:     tree.String(h),
	}, nil
}
