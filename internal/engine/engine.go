// Package engine is the user-facing facade: given a database, it picks (or
// is told) a strategy — the classical acyclic pipeline, direct evaluation of
// an optimized join expression, or the paper's derive-a-program route — runs
// it, and returns the result with cost accounting and an EXPLAIN-style
// report.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine/failpoint"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/relation"
)

// Strategy selects how Join computes ⋈D.
type Strategy int

const (
	// StrategyAuto picks per database: the acyclic pipeline when the scheme
	// is acyclic; otherwise an optimized tree is derived into a program —
	// exactly optimal for small schemes, greedy-seeded beyond the exact
	// search limit. A budget abort there falls through the rest of
	// DegradationLadder.
	StrategyAuto Strategy = iota
	// StrategyProgram optimizes a join expression (exact DP when feasible,
	// greedy otherwise), normalizes it with Algorithm 1, derives a program
	// with Algorithm 2, and runs it — the paper's route.
	StrategyProgram
	// StrategyExpression evaluates the cheapest Cartesian-product-free join
	// expression directly — the classical heuristic the paper critiques.
	StrategyExpression
	// StrategyReduceThenJoin runs one pairwise semijoin round (R_i := R_i ⋉
	// R_j for every overlapping ordered pair), then the cheapest CPF
	// expression's joins (searched on the unreduced instance at plan time)
	// over the reduced relations, compiled into one program — the classical
	// generalization of "full-reduce then join". A semijoin never removes a
	// tuple of ⋈D, so the joins still compute it. One round promises no
	// consistency, not even pairwise: it strips only the dangling tuples it
	// reaches.
	StrategyReduceThenJoin
	// StrategyAcyclic runs the full reducer plus a monotone join
	// expression; it fails on cyclic schemes.
	StrategyAcyclic
	// StrategyDirect joins the relations left-deep in the scheme's canonical
	// edge order (hypergraph.CanonicalOrder), not the order they were passed
	// in, with no optimization; the baseline of baselines.
	StrategyDirect
	// StrategyWCOJ runs the worst-case-optimal Leapfrog Triejoin
	// (internal/wcoj) as a one-statement program — a multiway join over every
	// relation: relations are trie-indexed along a global variable order and
	// ⋈D is computed attribute-by-attribute as a multiway intersection,
	// materializing no pairwise intermediate at all. On the cyclic schemes
	// where Example 3 makes every CPF expression unboundedly suboptimal, this
	// is the backend built for the job.
	StrategyWCOJ
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
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures Join.
type Options struct {
	// Strategy selects the execution route (default StrategyAuto).
	Strategy Strategy
	// Limits bounds execution itself: tuple budgets, a deadline, and a
	// cancellation context enforced inside every operator (zero value =
	// unlimited). Exceeding a limit aborts with a typed error
	// (govern.ErrTupleBudget, govern.ErrCanceled, govern.ErrDeadline).
	//
	// Under StrategyAuto, a blown tuple budget does not fail the call
	// outright: Join degrades along a strategy ladder (see DegradationLadder)
	// and records the fallback chain in Report.Notes. Explicit strategies
	// abort hard. Limits never change which plan runs first. Tuple budgets
	// apply per attempt — each rung of the ladder starts with fresh counters
	// (an aborted attempt's intermediates are discarded), while the deadline
	// and context are absolute and shared.
	Limits govern.Limits
	// Workers enables governed intra-query parallelism with up to Workers
	// goroutines: ready program statements run concurrently over their
	// dependency DAG, their joins and semijoins probe in parallel row
	// ranges, and a multiway join partitions its outermost variable. Every
	// plan runs as a program on that executor — join trees, the acyclic
	// pipeline, reduce-then-join and the leapfrog join included. All
	// workers charge the same governor budgets. 0 or 1 executes
	// sequentially (the default); results and costs are identical either
	// way. Workers is honored by direct Join calls and by cached-Plan
	// execution.
	Workers int
	// Trace, when non-nil, is the parent span the execution hangs its span
	// tree under: per ladder rung a "derive plan" span and an "execute plan"
	// attempt span, and below each attempt an "execute program" span with
	// per-statement / per-variable children, every span carrying its wall
	// time and the tuples the governor charged during it. Tracing forces
	// governor accounting on (so Report.Produced is meaningful even without
	// limits) and adds no cost at all when nil.
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
	// excluded; the optimizer's catalog bounds that with a budget of its own.
	Cost int64
	// Produced is the number of tuples the governor charged during the
	// winning execution attempt (0 when neither limits nor tracing were
	// set).
	Produced int64
	// TraceID identifies the query's span tree when tracing was enabled
	// (set by the serving layer; empty otherwise).
	TraceID string
	// Plan describes the executed plan: how its program was obtained (the
	// join expression, the route) and the program's statements.
	Plan string
	// Notes carries strategy-specific detail (trie counts, bound factors,
	// …).
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
	// Steps carries per-statement timings of the executed program, one per
	// statement in program order (for reduce-then-join, the round's
	// semijoins first, then the joins). Under parallel execution concurrent
	// steps overlap, so their Walls sum to more than the query's elapsed
	// time.
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
// It is the plan route run rung by rung: for each strategy of
// DegradationLadder(opts.Strategy, acyclic) it derives the plan with PlanFor
// and runs it with ExecutePlan, each rung under a fresh governor, so a Join
// report is exactly the report the serving layer returns for the same plan.
// Climb decides when a rung falls through to the next. With Options.Trace
// set, every PlanFor runs under a "derive plan" span beside the rung's
// "execute plan" attempt span.
func Join(db *relation.Database, opts Options) (*Report, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	ladder := DegradationLadder(opts.Strategy, hypergraph.OfScheme(db).Acyclic())
	return Climb(ladder, func(rung Strategy) (*Report, error) {
		o := opts
		o.Strategy = rung
		plan, err := planTraced(db, o)
		if err != nil {
			return nil, err
		}
		return ExecutePlan(db, plan, o)
	})
}

// planTraced is PlanFor under a "derive plan" span of Options.Trace (plain
// PlanFor when tracing is off).
func planTraced(db *relation.Database, opts Options) (*Plan, error) {
	if opts.Trace == nil {
		return PlanFor(db, opts)
	}
	sp := opts.Trace.Child(obs.KindPlan, "derive plan")
	defer sp.End()
	plan, err := PlanFor(db, opts)
	if err != nil {
		sp.Note("failed: %v", err)
	}
	return plan, err
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

// executeTraced runs fn — one call into the program executor — under an
// "execute program" span: the governor's span is swapped to it for the
// duration so the executor's per-statement spans nest under it, then
// restored. The span's self time is the executor's work outside statements
// — encoding the inputs (the output leaves as a block, decoded only if
// read). The swap is safe because the executor's worker goroutines are
// spawned (and joined) strictly inside the call. Untraced executions call fn
// with no overhead at all.
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

// runPlan runs the plan's program over the canonical database on the
// program executor.
func runPlan(cdb *relation.Database, plan *Plan, gov *govern.Governor, opts Options) (*Report, error) {
	var res *program.Result
	if err := executeTraced(gov, func() (err error) {
		res, err = plan.Program.ApplyParallelGoverned(cdb, gov, opts.workerCount())
		return err
	}); err != nil {
		return nil, err
	}
	return programReport(res.Output, res.Cost, res.Trace), nil
}

// programReport is the report of one program run: its output and §2.3
// cost, a step per statement, and the statements' own notes.
func programReport(out *relation.Relation, cost int, trace []program.Step) *Report {
	rep := &Report{Result: out, Cost: int64(cost), Steps: make([]StepTiming, len(trace))}
	for i, s := range trace {
		rep.Steps[i] = StepTiming{Stmt: s.Stmt.String(), Tuples: s.Size, Wall: s.Wall}
		rep.Notes = append(rep.Notes, s.Notes...)
	}
	return rep
}

// DegradationLadder returns the strategies a query under s tries, in order.
// An explicit strategy is a one-rung ladder: its abort is final. Auto starts
// at Resolve(h, auto), the plan the serving layer caches: the full-reducer
// pipeline on acyclic schemes, the paper's derived program otherwise. Behind
// the acyclic pipeline only the program route remains. Behind the program
// come the cheapest CPF expression, the same expression behind one pairwise
// semijoin round, and last the worst-case-optimal Leapfrog Triejoin, which
// materializes no pairwise intermediate at all.
func DegradationLadder(s Strategy, acyclic bool) []Strategy {
	switch {
	case s != StrategyAuto:
		return []Strategy{s}
	case acyclic:
		return []Strategy{StrategyAcyclic, StrategyProgram}
	default:
		return []Strategy{StrategyProgram, StrategyExpression, StrategyReduceThenJoin, StrategyWCOJ}
	}
}

// degradable reports whether an attempt's failure should fall through to
// the next rung: tuple budget aborts, in execution or in the optimizer's
// search, degrade; cancellation, deadlines, and real errors are final.
func degradable(err error) bool {
	return errors.Is(err, govern.ErrTupleBudget)
}

// Climb runs attempt on each rung of ladder in order and returns the first
// report that succeeds, with one "degradation: X aborted …" note per rung
// that fell through prepended to its notes. A rung falls through only on a
// tuple budget abort, in planning or execution; any other error, or an
// abort on the last rung, ends the climb. The attempt owns everything per
// rung — planning (or a plan-cache lookup) and execution under a fresh
// governor — so tuple budgets are per rung, while deadlines and contexts
// are absolute and carry across rungs. Join and the serving layer both
// climb through here.
func Climb(ladder []Strategy, attempt func(Strategy) (*Report, error)) (*Report, error) {
	var chain []string
	for i, rung := range ladder {
		rep, err := attempt(rung)
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
			rung, err, ladder[i+1]))
	}
	return nil, fmt.Errorf("engine: empty strategy ladder")
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
// small enough, greedy otherwise. The returned note names the search used
// and its cost, which leaves out |⋈D|.
func bestTree(db *relation.Database, space optimizer.Space) (*jointree.Tree, string, error) {
	cat := optimizer.NewCatalog(db, 0)
	if db.Len() > optimizer.MaxExactRelations {
		plan, err := optimizer.Greedy(cat, space == optimizer.SpaceCPF)
		if err != nil {
			return nil, "", err
		}
		return plan.Tree, fmt.Sprintf("greedy (cost %d + |⋈D|)", plan.Cost), nil
	}
	plan, err := optimizer.Optimal(cat, space)
	if err != nil {
		return nil, "", err
	}
	return plan.Tree, fmt.Sprintf("exact %s-space DP (cost %d + |⋈D|)", space, plan.Cost), nil
}
