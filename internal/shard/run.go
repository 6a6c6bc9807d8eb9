package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Run executes a plan over the group with scatter-gather: each shard runs
// the plan on its partition via the executor, and the disjoint per-shard
// outputs merge into one relation. Plans the cleanliness analysis rejects
// (Group.CleanFor) execute unsharded on the full catalog instead, so the
// returned report's Cost and Produced always equal a sequential
// execution's, and a MaxTuples abort fires at the same boundary: shards
// sharing a budget pool abort when their collective charges first exceed
// the grant; executors without a shared budget are post-checked.
//
// opts carries the query's sequential limits; Run derives the per-shard
// limits from them. opts.Strategy and opts.Budget are ignored (the plan
// fixed both, as with engine.ExecutePlan).
func Run(g *Group, plan *engine.Plan, opts engine.Options, ex Executor) (*engine.Report, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil group")
	}
	if ex == nil {
		return nil, fmt.Errorf("shard: nil executor")
	}
	if ex.Shards() != g.Shards() {
		return nil, fmt.Errorf("shard: executor serves %d shards, group has %d", ex.Shards(), g.Shards())
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
	if ex.SharedBudget() && lim.MaxTuples > 0 {
		// One pool for all shards: the collective abort boundary is the
		// sequential MaxTuples boundary exactly. MaxIntermediateTuples
		// stays per shard (a per-operator cap has no cross-shard meaning).
		shLim.Pool = govern.NewPool(lim.MaxTuples)
		shLim.MaxTuples = 0
	}
	perShardWorkers := opts.Workers / n
	if perShardWorkers < 1 {
		perShardWorkers = 1
	}

	// Executors whose shards consume this process's CPUs bound the fan-out
	// (see InProcess.LocalParallelism); remote fan-out is unbounded. A
	// queued shard that starts after a sibling's failure observes the shared
	// context already canceled and returns promptly.
	inFlight := n
	if lp, ok := ex.(interface{ LocalParallelism() int }); ok {
		if w := lp.LocalParallelism(); w > 0 && w < inFlight {
			inFlight = w
		}
	}
	sem := make(chan struct{}, inFlight)

	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		task := Task{
			Database: g.Name(),
			Plan:     plan,
			Limits:   shLim,
			Workers:  perShardWorkers,
		}
		if opts.Trace != nil {
			task.Trace = opts.Trace.Child(obs.KindExecute, fmt.Sprintf("shard %d/%d", i, n))
		}
		wg.Add(1)
		go func(i int, task Task) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := ex.Execute(ctx, i, task)
			if task.Trace != nil {
				if err != nil {
					task.Trace.Note("failed: %v", err)
				}
				task.Trace.End()
			}
			results[i], errs[i] = res, err
			if err != nil {
				cancel()
			}
		}(i, task)
	}
	wg.Wait()
	if err := gatherError(errs); err != nil {
		return nil, err
	}

	schema := results[0].Output.Schema()
	attrPos, ok := schema.Position(g.Attr())
	if !ok {
		// Clean plans retain the partition attribute in the output (the full
		// join carries every attribute; program cleanliness checks heads).
		return nil, fmt.Errorf("shard: merge: output schema %v lost partition attribute %q", schema.Attrs(), g.Attr())
	}
	// Permute each shard's rows into shard 0's column order (remote peers
	// may evaluate a differently-shaped but equivalent tree) and verify the
	// partitioning invariant: every output tuple must hash to the shard that
	// produced it, which also proves the shard outputs pairwise disjoint.
	// One goroutine per shard — this is the gather's row-copy work, and
	// serializing it would dominate large results.
	rows := make([][]relation.Tuple, n)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := results[i]
			pos, err := r.Output.Schema().Positions(schema.Attrs())
			if err != nil {
				errs[i] = fmt.Errorf("shard: merge: shard %d output schema %v does not match %v: %w",
					i, r.Output.Schema().Attrs(), schema.Attrs(), err)
				return
			}
			identity := true
			for c, p := range pos {
				if c != p {
					identity = false
					break
				}
			}
			out := r.Output.Rows()
			if !identity {
				out = make([]relation.Tuple, len(out))
				for k, t := range r.Output.Rows() {
					row := make(relation.Tuple, len(pos))
					for c, p := range pos {
						row[c] = t[p]
					}
					out[k] = row
				}
			}
			for _, row := range out {
				if own := row.ShardOf(attrPos, n); own != i {
					errs[i] = fmt.Errorf("shard: merge: shard %d produced a tuple owned by shard %d — partitioning invariant violated", i, own)
					return
				}
			}
			rows[i] = out
		}(i)
	}
	wg.Wait()
	if err := gatherError(errs); err != nil {
		return nil, err
	}
	total := 0
	for _, rs := range rows {
		total += len(rs)
	}
	all := make([]relation.Tuple, 0, total)
	var produced, cost int64
	for i, rs := range rows {
		all = append(all, rs...)
		produced += results[i].Produced
		cost += results[i].Cost
	}
	merged, err := relation.NewFromDistinctRows(schema, all)
	if err != nil {
		return nil, fmt.Errorf("shard: merge: %w", err)
	}
	// Every shard counts the broadcast relations among its inputs; the
	// sequential cost counts them once.
	cost -= int64(n-1) * g.BroadcastTuples()
	if !ex.SharedBudget() && lim.MaxTuples > 0 && produced > lim.MaxTuples {
		return nil, &govern.LimitError{Op: "shard.gather", Limit: "MaxTuples", Max: lim.MaxTuples, Produced: produced}
	}
	rep := &engine.Report{
		Result:      merged,
		Strategy:    plan.Strategy,
		Cost:        cost,
		Produced:    produced,
		Plan:        results[0].Plan,
		Notes:       append([]string(nil), results[0].Notes...),
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
