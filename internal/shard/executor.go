package shard

import (
	"context"
	"runtime"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Task is one shard's slice of a scatter-gather query. In-process
// executors consume Plan, Limits, and Trace directly; remote executors
// consume the wire-friendly fields (Database, the plan's strategy name,
// and the limits re-encoded as the JSON query parameters).
type Task struct {
	// Database is the catalog name (remote executors address it on their
	// peer; in-process executors ignore it).
	Database string
	// Plan is the derived plan to execute, already resolved and searched.
	Plan *engine.Plan
	// Limits are this shard's governor limits — for in-process execution
	// they carry the shared govern.Pool; for remote execution MaxTuples
	// holds the full grant and the coordinator post-checks the sum.
	Limits govern.Limits
	// Workers is the per-shard intra-query worker count.
	Workers int
	// Trace, when non-nil, is this shard's span; per-shard execution hangs
	// its span tree off it.
	Trace *obs.Span
}

// Result is one shard's contribution: the shard's output tuples and the
// cost/charge totals its governor observed.
type Result struct {
	Output   *relation.Relation
	Cost     int64
	Produced int64
	Plan     string
	Notes    []string
}

// Executor runs one shard's task. Implementations: InProcess (shard
// databases in this process, sharing one govern.Pool) and HTTPExecutor
// (fan-out to remote joind peers over the existing JSON wire format).
// Both must pass the same differential gauntlet.
type Executor interface {
	// Shards returns how many shards the executor serves; it must match
	// the group's count.
	Shards() int
	// SharedBudget reports whether per-shard executions can share
	// in-process governor state. When true, Run hands every shard one
	// govern.Pool so the budget abort fires on the exact global produced
	// count; when false, each shard receives the full grant and Run
	// post-checks the summed charges against it.
	SharedBudget() bool
	// Execute runs shard i's task. The context cancels when a sibling
	// shard fails, so implementations should abandon work promptly.
	Execute(ctx context.Context, i int, task Task) (*Result, error)
}

// InProcess executes shard tasks against the group's own databases on this
// process's engine — the shard group execution mode.
type InProcess struct {
	g *Group
}

// NewInProcess returns the in-process executor for a group.
func NewInProcess(g *Group) *InProcess { return &InProcess{g: g} }

// Shards implements Executor.
func (e *InProcess) Shards() int { return e.g.Shards() }

// LocalParallelism tells Run to cap in-flight shard executions at this
// process's scheduler width: shard tasks here are CPU-bound local work, and
// oversubscribing GOMAXPROCS makes concurrent evaluations thrash the
// allocator and caches instead of finishing in waves. Remote executors
// don't implement this — their shards burn other machines' cores, so the
// coordinator fans out fully.
func (e *InProcess) LocalParallelism() int { return runtime.GOMAXPROCS(0) }

// SharedBudget implements Executor: in-process shards share one pool.
func (e *InProcess) SharedBudget() bool { return true }

// Execute implements Executor by running the plan on shard i's database.
// Cancellation arrives through task.Limits.Context, which Run wired to the
// scatter's shared context.
func (e *InProcess) Execute(_ context.Context, i int, task Task) (*Result, error) {
	rep, err := engine.ExecutePlan(e.g.DB(i), task.Plan, engine.Options{
		Limits:  task.Limits,
		Workers: task.Workers,
		Trace:   task.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Output:   rep.Result,
		Cost:     rep.Cost,
		Produced: rep.Produced,
		Plan:     rep.Plan,
		Notes:    rep.Notes,
	}, nil
}
