package service

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// serviceMetrics is the service's Prometheus registry: the series behind
// GET /metrics. Event-driven series (counters, histograms) are updated on
// the query path; occupancy series read the service's existing atomic
// counters and plan-cache stats at scrape time, so scraping duplicates no
// state. Every series here is documented in docs/OBSERVABILITY.md.
type serviceMetrics struct {
	registry *obs.Registry

	// queries partitions finished admissions by executed strategy and
	// outcome ("ok", "rejected", "aborted", "failed"): each query is
	// classified once, in finish, and Stats reads its outcome counts here.
	queries *obs.CounterVec
	// tuples is the total governor charge across successful queries.
	tuples *obs.Counter
	// duration and queueWait are end-to-end latency and admission-queue
	// wait, in seconds.
	duration  *obs.Histogram
	queueWait *obs.Histogram
	// slow counts queries captured by the slow-query log.
	slow *obs.Counter
	// ingests partitions ingest batches by outcome ("ok", "rejected",
	// "failed"); ingestDuration is the end-to-end ingest latency (WAL
	// append + fsync + catalog swap), in seconds.
	ingests        *obs.CounterVec
	ingestDuration *obs.Histogram
	// viewMaintenance is the per-view delta-application latency (one
	// observation per view per ingest batch), rebuild included when the
	// batch triggered one.
	viewMaintenance *obs.Histogram
}

// newServiceMetrics builds and registers the full series set against s.
func newServiceMetrics(s *Service) *serviceMetrics {
	r := obs.NewRegistry()
	m := &serviceMetrics{
		registry: r,
		queries: r.CounterVec("joind_queries_total",
			"Queries finished, by executed strategy and outcome (ok, rejected, aborted, failed).",
			"strategy", "status"),
		tuples: r.Counter("joind_tuples_produced_total",
			"Tuples charged by the governor across successful queries (the paper's generated relations)."),
		duration: r.Histogram("joind_query_duration_seconds",
			"End-to-end query latency, admission queue included.", nil),
		queueWait: r.Histogram("joind_queue_wait_seconds",
			"Time admitted queries spent waiting for a worker slot.", nil),
		slow: r.Counter("joind_slow_queries_total",
			"Queries at or above the slow-query threshold (captured in the slow-query log)."),
		ingests: r.CounterVec("joind_ingests_total",
			"Ingest batches finished, by outcome (ok, rejected, failed).",
			"status"),
		ingestDuration: r.Histogram("joind_ingest_duration_seconds",
			"End-to-end ingest latency: WAL append, fsync, and catalog swap.", nil),
		viewMaintenance: r.Histogram("joind_view_maintenance_seconds",
			"Per-view delta-maintenance latency per ingest batch (rebuild included when triggered).", nil),
	}

	r.GaugeFunc("joind_in_flight_queries",
		"Queries holding a worker slot right now.",
		func() float64 { return float64(s.inFlight.Load()) })
	r.GaugeFunc("joind_queued_queries",
		"Queries waiting for a worker slot right now.",
		func() float64 { return float64(s.queued.Load()) })
	r.GaugeFunc("joind_worker_utilization",
		"In-flight queries over the worker-pool size (0..1).",
		func() float64 { return float64(s.inFlight.Load()) / float64(s.cfg.Workers) })
	r.GaugeFunc("joind_registered_databases",
		"Databases in the catalog.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.dbs))
		})

	r.CounterFunc("joind_plan_cache_hits_total",
		"Plan-cache lookups answered from the cache (coalesced waits included).",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc("joind_plan_cache_misses_total",
		"Plan-cache lookups that derived a new plan.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.CounterFunc("joind_plan_cache_evictions_total",
		"Plan-cache entries dropped to respect capacity.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.GaugeFunc("joind_plan_cache_entries",
		"Plans currently cached.",
		func() float64 { return float64(s.cache.Stats().Len) })
	r.GaugeFunc("joind_plan_cache_hit_ratio",
		"Hits over lookups since start (0 when no lookups yet).",
		func() float64 {
			st := s.cache.Stats()
			if st.Hits+st.Misses == 0 {
				return 0
			}
			return float64(st.Hits) / float64(st.Hits+st.Misses)
		})

	r.GaugeFunc("joind_tuple_budget_remaining",
		"Unreserved part of the global tuple budget (-1 when unlimited).",
		func() float64 {
			if s.cfg.GlobalMaxTuples <= 0 {
				return -1
			}
			return float64(s.budgetRemaining.Load())
		})
	r.GaugeFunc("joind_tuple_budget_total",
		"Configured global tuple budget (-1 when unlimited).",
		func() float64 {
			if s.cfg.GlobalMaxTuples <= 0 {
				return -1
			}
			return float64(s.cfg.GlobalMaxTuples)
		})
	r.CounterFunc("joind_ladder_degradations_total",
		"Queries whose first degradation-ladder rung aborted on its budget and fell through to the next rung.",
		func() float64 { return float64(s.degraded.Load()) })

	// Continuous-query (view) series. Counters read the service's aggregate
	// atomics; the gauges poll the registry under its lock.
	r.GaugeFunc("joind_views_registered",
		"Continuous queries (materialized views) currently registered.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.views))
		})
	r.GaugeFunc("joind_views_stale",
		"Views whose last maintenance failed and whose rebuild has not succeeded yet.",
		func() float64 { return float64(s.staleViews()) })
	r.CounterFunc("joind_view_delta_batches_total",
		"Delta batches applied to views (one per view per acknowledged ingest batch).",
		func() float64 { return float64(s.viewDeltaBatches.Load()) })
	r.CounterFunc("joind_view_delta_tuples_in_total",
		"Effective base-relation delta tuples propagated into views.",
		func() float64 { return float64(s.viewTuplesIn.Load()) })
	r.CounterFunc("joind_view_delta_tuples_out_total",
		"Result-delta tuples emitted by views (how much the materialized results changed).",
		func() float64 { return float64(s.viewTuplesOut.Load()) })
	r.CounterFunc("joind_view_reducer_skips_total",
		"Semijoin reducer re-runs skipped under the Safe-Subjoins condition.",
		func() float64 { return float64(s.viewReducerSkips.Load()) })
	r.CounterFunc("joind_view_full_rebuilds_total",
		"Full from-catalog view rebuilds (registration, recovery, and repair after a failed maintenance run).",
		func() float64 { return float64(s.viewRebuilds.Load()) })

	// Scatter-gather (sharding) series. All zero while sharding is off.
	r.GaugeFunc("joind_shard_count",
		"Configured shard count (0 when sharding is off).",
		func() float64 {
			if s.cfg.Shards > 1 {
				return float64(s.cfg.Shards)
			}
			return 0
		})
	r.CounterFunc("joind_shard_executions_total",
		"Queries executed through scatter-gather across the shard group.",
		func() float64 { return float64(s.shardScatter.Load()) })
	r.CounterFunc("joind_shard_single_fallbacks_total",
		"Sharded queries executed single-shard because the plan's cleanliness analysis rejected scatter.",
		func() float64 { return float64(s.shardSingle.Load()) })
	r.CounterFunc("joind_shard_tuples_total",
		"Result tuples gathered from scattered shard executions.",
		func() float64 { return float64(s.shardTuples.Load()) })
	r.CounterFunc("joind_shard_ingest_routed_tuples_total",
		"Ingest tuples routed to owning shards (broadcast fan-out counted once).",
		func() float64 { return float64(s.shardIngestRouted.Load()) })

	r.CounterFunc("joind_plan_cache_invalidations_total",
		"Plan-cache entries dropped because their database was mutated by ingest.",
		func() float64 { return float64(s.cache.Stats().Invalidations) })

	// Durable-store series. All zero until AttachStore; scrapes read the
	// store's own atomics.
	storeStats := func() store.Stats {
		if st := s.store.Load(); st != nil {
			return st.Stats()
		}
		return store.Stats{}
	}
	r.GaugeFunc("joind_store_attached",
		"1 when a durable store is attached (joind -data-dir), else 0.",
		func() float64 {
			if s.store.Load() != nil {
				return 1
			}
			return 0
		})
	r.CounterFunc("joind_wal_appends_total",
		"Batch records appended to write-ahead logs.",
		func() float64 { return float64(storeStats().WALAppends) })
	r.CounterFunc("joind_wal_bytes_total",
		"Bytes appended to write-ahead logs (framing included).",
		func() float64 { return float64(storeStats().WALBytes) })
	r.CounterFunc("joind_snapshot_writes_total",
		"Snapshot files written by checkpoints (database creation included).",
		func() float64 { return float64(storeStats().SnapshotWrites) })
	r.CounterFunc("joind_snapshot_bytes_total",
		"Bytes written to snapshot files.",
		func() float64 { return float64(storeStats().SnapshotBytes) })
	r.CounterFunc("joind_snapshot_checkpoints_total",
		"Completed checkpoints (snapshot durable, WAL truncated).",
		func() float64 { return float64(storeStats().Checkpoints) })
	r.GaugeFunc("joind_recovery_replayed_records",
		"WAL records replayed during this process's startup recovery.",
		func() float64 { return float64(storeStats().ReplayedRecords) })
	r.GaugeFunc("joind_recovery_torn_bytes",
		"Torn-tail bytes discarded from WALs during startup recovery.",
		func() float64 { return float64(storeStats().TornTailBytes) })

	return m
}
