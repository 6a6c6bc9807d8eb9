package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
)

// InProcess is a group's shard executor: Run executes every shard on the
// group's own databases, in this process, with one shared govern.Pool.
type InProcess struct {
	g *Group
}

// NewInProcess returns the executor for a group.
func NewInProcess(g *Group) *InProcess { return &InProcess{g: g} }

// Run executes a plan over the group with scatter-gather: each shard runs
// the plan on its partition with engine.ExecutePlan, and the disjoint
// per-shard outputs merge into one relation. Plans the cleanliness
// analysis rejects (Group.CleanFor) execute unsharded on the full catalog
// instead, so the returned report's Cost and Produced always equal a
// sequential execution's, and a MaxTuples abort fires at the same
// boundary: the shards share one budget pool and abort when their
// collective charges first exceed the grant.
//
// opts carries the query's sequential limits; Run derives the per-shard
// limits from them. opts.Strategy is ignored (the plan fixed it, as with
// engine.ExecutePlan). ex must be g's executor.
func Run(g *Group, plan *engine.Plan, opts engine.Options, ex *InProcess) (*engine.Report, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil group")
	}
	if ex == nil || ex.g != g {
		return nil, fmt.Errorf("shard: executor does not belong to the group")
	}
	if g.Shards() == 1 {
		rep, err := engine.ExecutePlan(g.Full(), plan, opts)
		if rep != nil {
			rep.Shards = 1
		}
		return rep, err
	}
	if ok, reason := g.CleanFor(plan); !ok {
		rep, err := engine.ExecutePlan(g.Full(), plan, opts)
		if err != nil {
			return nil, err
		}
		rep.Shards = 1
		rep.Notes = append(rep.Notes, "scatter skipped: "+reason)
		return rep, nil
	}

	n := g.Shards()
	lim := opts.Limits
	base := lim.Context
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	shLim := lim
	shLim.Context = ctx
	if lim.MaxTuples > 0 {
		// One pool for all shards: the collective abort boundary is the
		// sequential MaxTuples boundary exactly.
		shLim.Pool = govern.NewPool(lim.MaxTuples)
		shLim.MaxTuples = 0
	}
	perShardWorkers := opts.Workers / n
	if perShardWorkers < 1 {
		perShardWorkers = 1
	}

	// Shard executions are CPU-bound work on this process's cores, so at
	// most GOMAXPROCS run at once: oversubscribing makes concurrent
	// evaluations thrash the allocator and caches instead of finishing in
	// waves. A queued shard that starts after a sibling's failure observes
	// the shared context already canceled and returns promptly.
	sem := make(chan struct{}, min(n, runtime.GOMAXPROCS(0)))

	reps := make([]*engine.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var span *obs.Span
		if opts.Trace != nil {
			span = opts.Trace.Child(obs.KindExecute, fmt.Sprintf("shard %d/%d", i, n))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rep, err := engine.ExecutePlan(g.DB(i), plan, engine.Options{
				Limits:  shLim,
				Workers: perShardWorkers,
				Trace:   span,
			})
			if span != nil {
				if err != nil {
					span.Note("failed: %v", err)
				}
				span.End()
			}
			reps[i], errs[i] = rep, err
			if err != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := gatherError(errs); err != nil {
		return nil, err
	}

	// Every shard ran the one program over the same scheme, so every output
	// has shard 0's schema.
	schema := reps[0].Result.Schema()
	attrPos, ok := schema.Position(g.Attr())
	if !ok {
		// Clean plans retain the partition attribute in the output (the full
		// join carries every attribute; program cleanliness checks heads).
		return nil, fmt.Errorf("shard: merge: output schema %v lost partition attribute %q", schema.Attrs(), g.Attr())
	}
	// Verify the partitioning invariant: every output tuple must hash to the
	// shard that produced it, which also proves the shard outputs pairwise
	// disjoint. One goroutine per shard — serializing the scan would
	// dominate large results.
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, row := range reps[i].Result.Rows() {
				if own := row.ShardOf(attrPos, n); own != i {
					errs[i] = fmt.Errorf("shard: merge: shard %d produced a tuple owned by shard %d — partitioning invariant violated", i, own)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := gatherError(errs); err != nil {
		return nil, err
	}
	total := 0
	for _, r := range reps {
		total += r.Result.Len()
	}
	all := make([]relation.Tuple, 0, total)
	var produced, cost int64
	for _, r := range reps {
		all = append(all, r.Result.Rows()...)
		produced += r.Produced
		cost += r.Cost
	}
	merged, err := relation.NewFromDistinctRows(schema, all)
	if err != nil {
		return nil, fmt.Errorf("shard: merge: %w", err)
	}
	// Every shard counts the broadcast relations among its inputs; the
	// sequential cost counts them once.
	cost -= int64(n-1) * g.BroadcastTuples()
	rep := &engine.Report{
		Result:      merged,
		Strategy:    plan.Strategy,
		Cost:        cost,
		Produced:    produced,
		Plan:        reps[0].Plan,
		Notes:       append([]string(nil), reps[0].Notes...),
		Parallelism: perShardWorkers,
		Shards:      n,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("scatter-gather: %d shards partitioned on %q (%d partitioned, %d broadcast relations)",
		n, g.Attr(), g.PartitionedCount(), len(g.part)-g.PartitionedCount()))
	return rep, nil
}

// gatherError picks the error to surface from a scatter: a budget abort
// wins (the parity-relevant signal; sibling shards observe the shared
// cancellation and report ErrCanceled), then a deadline, then any error
// that is not a secondary cancellation, then anything.
func gatherError(errs []error) error {
	for _, e := range errs {
		if e != nil && errors.Is(e, govern.ErrTupleBudget) {
			return e
		}
	}
	for _, e := range errs {
		if e != nil && errors.Is(e, govern.ErrDeadline) {
			return e
		}
	}
	for _, e := range errs {
		if e != nil && !errors.Is(e, govern.ErrCanceled) {
			return e
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
