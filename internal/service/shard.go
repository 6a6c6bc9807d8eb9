package service

import (
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/shard"
)

// The sharding coordinator. With Config.Shards > 1 every registered
// database carries a shard.Group (built at registration, rebased on every
// ingest batch under ingestMu), and /v1/query routes through shard.Run.

// planKey builds the plan-cache key: fingerprint#strategy. Ingest drops a
// database's plans by the fingerprint+"#" prefix. The shard layout is not in
// the key: it is fixed at New, and shard.Run checks each plan it is handed
// for cleanness on every execution.
func planKey(fingerprint string, strat engine.Strategy) string {
	return fingerprint + "#" + strat.String()
}

// runPlan executes a derived plan: unsharded (grp == nil) it is
// engine.ExecutePlan on the query's pinned catalog; sharded it is
// shard.Run, which scatters clean plans and falls back to single-shard
// execution for the rest. The scatter counters feed the joind_shard_*
// metric series.
func (s *Service) runPlan(grp *shard.Group, db *relation.Database, plan *engine.Plan, opts engine.Options) (*engine.Report, error) {
	if grp == nil {
		return engine.ExecutePlan(db, plan, opts)
	}
	rep, err := shard.Run(grp, plan, opts, shard.NewInProcess(grp))
	if err == nil && rep != nil {
		if rep.Shards > 1 {
			s.shardScatter.Add(1)
			s.shardTuples.Add(int64(rep.Result.Len()))
		} else {
			s.shardSingle.Add(1)
		}
	}
	return rep, err
}
