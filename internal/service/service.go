// Package service is the serving layer over the engine: a catalog of
// registered named databases, a bounded worker pool with admission control
// and queue timeouts, per-query resource limits carved from a configurable
// global tuple budget, and a plan cache keyed by canonical scheme
// fingerprint so repeat schemes skip optimizer search and Algorithm 1/2
// derivation entirely (the paper's Theorems 1–2 are the license: a derived
// program is correct and quasi-optimal for every instance over its scheme).
//
// cmd/joind exposes this over HTTP (see http.go); the package itself is
// transport-agnostic and fully testable in-process.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
)

// Typed service errors; match with errors.Is. ErrQueueTimeout and
// ErrBudgetExhausted wrap ErrOverloaded, so "reject with 429" is one check.
var (
	// ErrOverloaded reports that admission control rejected the query: the
	// queue is full, the queue wait timed out, or the global tuple budget
	// has no headroom. Serve it as HTTP 429.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrQueueTimeout is an ErrOverloaded for a query that waited its full
	// queue timeout without getting a worker slot.
	ErrQueueTimeout = fmt.Errorf("%w: queue wait timed out", ErrOverloaded)
	// ErrBudgetExhausted is an ErrOverloaded for a query that could not
	// carve its tuple budget from the global budget.
	ErrBudgetExhausted = fmt.Errorf("%w: global tuple budget exhausted", ErrOverloaded)
	// ErrUnknownDatabase reports a query against an unregistered name.
	ErrUnknownDatabase = errors.New("service: unknown database")
	// ErrDuplicateDatabase reports a Register with an already-taken name.
	ErrDuplicateDatabase = errors.New("service: database already registered")
	// ErrBadRequest reports a malformed request (e.g. an unknown strategy
	// name). Serve it as HTTP 400.
	ErrBadRequest = errors.New("service: bad request")
	// ErrReadOnly reports an ingest against a service with no durable store
	// attached (joind without -data-dir). Serve it as HTTP 403.
	ErrReadOnly = errors.New("service: no durable store attached (read-only)")
	// ErrUnavailable reports a request the service cannot serve right now:
	// it is still recovering its durable catalog, it is shutting down, or
	// the store refused a mutation (e.g. a poisoned WAL after an fsync
	// failure). Serve it as HTTP 503.
	ErrUnavailable = errors.New("service: unavailable (recovering or shutting down)")
)

// Config sizes the service. The zero value gets sensible defaults from New.
type Config struct {
	// Workers is the number of queries executing concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth is how many queries may wait for a slot before further
	// arrivals are rejected immediately (default 4×Workers).
	QueueDepth int
	// QueueTimeout bounds how long an admitted-to-queue query waits for a
	// worker slot before being rejected (default 5s).
	QueueTimeout time.Duration
	// PlanCacheSize is the plan cache capacity in entries
	// (default plancache.DefaultCapacity).
	PlanCacheSize int
	// GlobalMaxTuples is the total tuple budget available to in-flight
	// queries; each query reserves its per-query budget from it at
	// admission and returns it on completion (0 = unlimited).
	GlobalMaxTuples int64
	// MaxTuplesPerQuery caps any single query's tuple budget. With a global
	// budget set, it defaults to GlobalMaxTuples/Workers — the fair share —
	// and is also what a query gets when it asks for no explicit limit.
	MaxTuplesPerQuery int64
	// DefaultTimeout is the per-query deadline applied when a request does
	// not set one (0 = none).
	DefaultTimeout time.Duration
	// QueryWorkers caps the intra-query parallelism of any single query
	// (engine Options.Workers). The default 1 keeps queries sequential;
	// raising it lets each query run its joins on up to QueryWorkers
	// goroutines. Requests may ask for fewer.
	QueryWorkers int
	// Tracer, when non-nil, keeps every query's finished span tree, and
	// every view maintenance run's, in its bounded ring. Independent of the
	// Tracer, span trees are also produced whenever the slow-query log is
	// enabled, so slow entries carry their drill-down; with neither
	// configured, queries run with tracing fully off — zero allocation on
	// the hot path.
	Tracer *obs.Collector
	// SlowQueryThreshold enables the bounded in-memory slow-query log:
	// queries whose end-to-end wall time meets the threshold are captured
	// with their span trees and served at GET /v1/slow. 0 disables the log;
	// use a tiny threshold (say time.Nanosecond) to capture every query.
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query log's retained entries
	// (default obs.DefaultSlowLogCapacity).
	SlowLogSize int
	// Shards is the number of shards queries scatter across (0 or 1 =
	// sharding off). With Shards > 1 every registered database is
	// hash-partitioned into an in-process shard group (internal/shard) and
	// /v1/query routes through scatter-gather execution whenever the
	// plan's cleanliness analysis admits it.
	Shards int
	// ShardBroadcastThreshold is the relation size below which a relation
	// is broadcast to every shard instead of hash-partitioned (0 takes
	// shard.DefaultBroadcastThreshold; negative = never broadcast by
	// size). Only meaningful with Shards > 1.
	ShardBroadcastThreshold int
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	if cfg.MaxTuplesPerQuery <= 0 && cfg.GlobalMaxTuples > 0 {
		cfg.MaxTuplesPerQuery = cfg.GlobalMaxTuples / int64(cfg.Workers)
		if cfg.MaxTuplesPerQuery < 1 {
			cfg.MaxTuplesPerQuery = 1
		}
	}
	if cfg.QueryWorkers <= 0 {
		cfg.QueryWorkers = 1
	}
	if cfg.Shards > 1 && cfg.ShardBroadcastThreshold == 0 {
		cfg.ShardBroadcastThreshold = shard.DefaultBroadcastThreshold
	}
	return cfg
}

// DatabaseInfo describes one catalog entry.
type DatabaseInfo struct {
	Name        string `json:"name"`
	Relations   int    `json:"relations"`
	Tuples      int    `json:"tuples"`
	Fingerprint string `json:"fingerprint"`
	Acyclic     bool   `json:"acyclic"`
}

// catalogEntry is a registered database with its precomputed scheme facts.
// The instance pointer is swapped atomically by Ingest (copy-on-write): a
// query loads it once and keeps that consistent snapshot for its whole
// execution, while the scheme facts (fingerprint, acyclicity) never change —
// ingest mutates tuples, not schemes.
type catalogEntry struct {
	name        string
	db          atomic.Pointer[relation.Database]
	fingerprint string
	acyclic     bool

	// group is the database's sharded layout, nil when sharding is off.
	// It is rebased (never mutated) on ingest under ingestMu; one load
	// pins a consistent partitioned + unsharded snapshot pair.
	group atomic.Pointer[shard.Group]

	// ingestMu serializes the store append + catalog swap so the visible
	// catalog never lags behind a later-acknowledged batch.
	ingestMu sync.Mutex

	// aborts remembers the rungs whose plan search aborted on one snapshot.
	aborts atomic.Pointer[searchAborts]
}

// searchAborts holds, for one catalog snapshot, the error of each rung whose
// plan derivation aborted with govern.ErrTupleBudget. The plan cache keeps
// no failure, and an abort depends on the instance, not on the scheme the
// cache is keyed by; so it is kept here per snapshot, and a later query on
// the same snapshot gets the error back without searching again. An ingest
// makes a new snapshot, which searches afresh.
type searchAborts struct {
	db   *relation.Database
	errs sync.Map // engine.Strategy → error
}

// abortsFor returns the abort memo of snapshot db, replacing one kept for
// another snapshot.
func (e *catalogEntry) abortsFor(db *relation.Database) *searchAborts {
	m := e.aborts.Load()
	if m == nil || m.db != db {
		m = &searchAborts{db: db}
		e.aborts.Store(m)
	}
	return m
}

// Request is one query against a registered database.
type Request struct {
	// Database is the catalog name to join.
	Database string
	// Strategy names the execution strategy ("" = auto).
	Strategy string
	// MaxTuples caps this query's generated tuples. 0 takes the service
	// default (the fair share of the global budget, if one is set); a
	// nonzero ask is clamped to Config.MaxTuplesPerQuery.
	MaxTuples int64
	// Timeout is this query's deadline, counted from admission
	// (0 = Config.DefaultTimeout).
	Timeout time.Duration
	// Workers asks for intra-query parallelism: the number of goroutines
	// this query's joins may use. 0 takes the service default
	// (Config.QueryWorkers); a positive ask is clamped to it, and a negative
	// one is ErrBadRequest.
	Workers int
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Databases int   `json:"databases"`
	Workers   int   `json:"workers"`
	InFlight  int64 `json:"in_flight"`
	Queued    int64 `json:"queued"`
	// The outcome counters read joind_queries_total, where each query that
	// reaches admission is counted once by its status. Queries is
	// Succeeded + Aborted + Failed; Rejected counts admission failures
	// (queue full, queue timeout, global budget exhausted), which are not
	// queries run.
	Queries   int64 `json:"queries"`
	Succeeded int64 `json:"succeeded"`
	Rejected  int64 `json:"rejected"`
	// Aborted counts queries that hit their own resource limits (tuple
	// budget, deadline, cancellation, in the queue too).
	Aborted int64 `json:"aborted"`
	Failed  int64 `json:"failed"`
	// Degraded counts queries whose first ladder rung aborted on a tuple
	// budget, in planning or execution, and that went on to the next rung
	// (auto only).
	Degraded int64 `json:"degraded"`
	// QueryWorkers is the configured per-query parallelism cap.
	QueryWorkers int `json:"query_workers"`
	// GlobalTuplesRemaining is the unreserved part of the global budget
	// (-1 when no global budget is configured).
	GlobalTuplesRemaining int64           `json:"global_tuples_remaining"`
	PlanCache             plancache.Stats `json:"plan_cache"`
	// Ready reports whether the service is serving (false during recovery
	// and shutdown; mirrors /readyz).
	Ready bool `json:"ready"`
	// Ingests counts acknowledged ingest batches.
	Ingests int64 `json:"ingests"`
	// WALRecords, Snapshots, and Invalidations surface the headline durable
	// and cache-coherence counters at the top level for scripting: WAL
	// records appended, snapshot files written, and plan-cache entries
	// dropped by ingest invalidation. (The full store breakdown stays under
	// "store".)
	WALRecords    int64 `json:"wal_records"`
	Snapshots     int64 `json:"snapshots"`
	Invalidations int64 `json:"invalidations"`
	// Views counts registered continuous queries; ViewsStale how many are
	// awaiting a successful rebuild. The ViewDelta* / ViewRebuilds /
	// ViewReducerSkips counters aggregate maintenance work across all views.
	Views            int   `json:"views"`
	ViewsStale       int   `json:"views_stale"`
	ViewDeltaBatches int64 `json:"view_delta_batches"`
	ViewRebuilds     int64 `json:"view_rebuilds"`
	ViewReducerSkips int64 `json:"view_reducer_skips"`
	// Store is the durable-store snapshot, nil when no store is attached.
	Store *store.Stats `json:"store,omitempty"`
}

// Service serves joins over a catalog of registered databases. Construct
// with New; all methods are safe for concurrent use.
type Service struct {
	cfg     Config
	cache   *plancache.Cache
	slots   chan struct{}
	metrics *serviceMetrics
	slowLog *obs.SlowLog // nil when SlowQueryThreshold is 0

	mu    sync.RWMutex
	dbs   map[string]*catalogEntry
	views map[string]*viewEntry

	// store is the durable mutation path (nil = in-memory only; ingest is
	// then refused with ErrReadOnly). Attached once via AttachStore.
	store atomic.Pointer[store.Store]
	// ready gates /healthz and /readyz: false while joind replays its WAL
	// (and again during shutdown). In-process services start ready.
	ready atomic.Bool

	queued          atomic.Int64
	inFlight        atomic.Int64
	budgetRemaining atomic.Int64 // meaningful only when cfg.GlobalMaxTuples > 0

	degraded, ingests atomic.Int64

	viewDeltaBatches, viewTuplesIn, viewTuplesOut atomic.Int64
	viewReducerSkips, viewRebuilds                atomic.Int64

	// Scatter-gather counters behind the joind_shard_* metric series.
	shardScatter, shardSingle, shardTuples, shardIngestRouted atomic.Int64
}

// New builds a service from cfg (zero fields get defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		cache: plancache.New(cfg.PlanCacheSize),
		slots: make(chan struct{}, cfg.Workers),
		dbs:   make(map[string]*catalogEntry),
		views: make(map[string]*viewEntry),
	}
	s.budgetRemaining.Store(cfg.GlobalMaxTuples)
	s.ready.Store(true)
	if cfg.SlowQueryThreshold > 0 {
		s.slowLog = obs.NewSlowLog(cfg.SlowQueryThreshold, cfg.SlowLogSize)
	}
	s.metrics = newServiceMetrics(s)
	return s
}

// Metrics returns the service's Prometheus registry (the body of
// GET /metrics).
func (s *Service) Metrics() *obs.Registry { return s.metrics.registry }

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// Register adds a named database to the catalog. The scheme's fingerprint
// and acyclicity are computed once here, so the query path never re-derives
// them. Names are unique; re-registering is an error (drop-and-replace is a
// deliberate non-feature: cached plans for the fingerprint stay valid
// because plans depend only on the scheme, but silent replacement invites
// confusion about which instance answered).
//
// With a store attached, the database is made durable first — its initial
// snapshot is on disk before the name is visible to queries — and the
// store's (stricter) name rules apply.
func (s *Service) Register(name string, db *relation.Database) (DatabaseInfo, error) {
	if name == "" {
		return DatabaseInfo{}, fmt.Errorf("service: database name must be nonempty")
	}
	if db == nil || db.Len() == 0 {
		return DatabaseInfo{}, fmt.Errorf("service: database %q is empty", name)
	}
	if st := s.store.Load(); st != nil {
		if err := st.Create(name, db); err != nil {
			return DatabaseInfo{}, mapStoreError(err)
		}
	}
	return s.register(name, db)
}

// register adds db to the in-memory catalog (no persistence).
func (s *Service) register(name string, db *relation.Database) (DatabaseInfo, error) {
	h := hypergraph.OfScheme(db)
	e := &catalogEntry{
		name:        name,
		fingerprint: h.Fingerprint(),
		acyclic:     h.Acyclic(),
	}
	e.db.Store(db)
	if s.cfg.Shards > 1 {
		g, err := shard.NewGroup(name, db, s.cfg.Shards, s.cfg.ShardBroadcastThreshold)
		if err != nil {
			return DatabaseInfo{}, fmt.Errorf("service: shard %q: %w", name, err)
		}
		e.group.Store(g)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.dbs[name]; dup {
		return DatabaseInfo{}, fmt.Errorf("%w: %q", ErrDuplicateDatabase, name)
	}
	s.dbs[name] = e
	return s.info(e), nil
}

// mapStoreError translates store errors into the service's typed errors.
func mapStoreError(err error) error {
	switch {
	case errors.Is(err, store.ErrExists):
		return fmt.Errorf("%w: %v", ErrDuplicateDatabase, err)
	case errors.Is(err, store.ErrUnknownDatabase):
		return fmt.Errorf("%w: %v", ErrUnknownDatabase, err)
	case errors.Is(err, store.ErrBadName), errors.Is(err, store.ErrBadBatch):
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	case errors.Is(err, store.ErrClosed), errors.Is(err, store.ErrWALFailed):
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	default:
		return err
	}
}

// info renders a catalog entry.
func (s *Service) info(e *catalogEntry) DatabaseInfo {
	db := e.db.Load()
	return DatabaseInfo{
		Name:        e.name,
		Relations:   db.Len(),
		Tuples:      db.TotalTuples(),
		Fingerprint: e.fingerprint,
		Acyclic:     e.acyclic,
	}
}

// Databases lists the catalog in name order.
func (s *Service) Databases() []DatabaseInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DatabaseInfo, 0, len(s.dbs))
	for _, e := range s.dbs {
		out = append(out, s.info(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lookup resolves a catalog name.
func (s *Service) lookup(name string) (*catalogEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDatabase, name)
	}
	return e, nil
}

// acquire implements admission control: it takes a worker slot, waiting up
// to QueueTimeout while at most QueueDepth queries are already waiting.
// It returns the time spent queued and a release function.
func (s *Service) acquire(ctx context.Context) (time.Duration, func(), error) {
	release := func() {
		<-s.slots
		s.inFlight.Add(-1)
	}
	// Fast path: a free slot, no queue wait.
	select {
	case s.slots <- struct{}{}:
		s.inFlight.Add(1)
		return 0, release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return 0, nil, fmt.Errorf("%w: queue full (%d waiting)", ErrOverloaded, s.cfg.QueueDepth)
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.inFlight.Add(1)
		return time.Since(start), release, nil
	case <-timer.C:
		return 0, nil, ErrQueueTimeout
	case <-ctx.Done():
		return 0, nil, &govern.AbortError{Op: "service.queue", Sentinel: govern.ErrCanceled, Cause: ctx.Err()}
	}
}

// carve reserves a per-query tuple budget from the global budget. It
// returns the granted budget (0 = unlimited) and a function returning the
// reservation.
func (s *Service) carve(asked int64) (int64, func(), error) {
	grant := asked
	if s.cfg.MaxTuplesPerQuery > 0 && (grant <= 0 || grant > s.cfg.MaxTuplesPerQuery) {
		grant = s.cfg.MaxTuplesPerQuery
	}
	if s.cfg.GlobalMaxTuples <= 0 {
		return grant, func() {}, nil
	}
	// With a global budget, every query must hold a concrete reservation.
	if grant <= 0 {
		grant = s.cfg.MaxTuplesPerQuery
	}
	for {
		rem := s.budgetRemaining.Load()
		if rem < grant {
			return 0, nil, fmt.Errorf("%w: %d tuples requested, %d unreserved", ErrBudgetExhausted, grant, rem)
		}
		if s.budgetRemaining.CompareAndSwap(rem, rem-grant) {
			return grant, func() { s.budgetRemaining.Add(grant) }, nil
		}
	}
}

// grantWorkers grants a query its intra-query worker count: the ask
// (0 = service default) clamped to Config.QueryWorkers.
func (s *Service) grantWorkers(asked int) int {
	if asked <= 0 || asked > s.cfg.QueryWorkers {
		return s.cfg.QueryWorkers
	}
	return asked
}

// Query joins the named database under the request's limits. The flow is:
// admission (worker slot with queue timeout), budget carving, then a climb
// of the strategy's engine.DegradationLadder through engine.Climb: each
// rung is a plan-cache lookup keyed by scheme fingerprint + rung strategy (a
// miss derives the plan once, coalescing concurrent misses) and a governed
// execution of that plan, and only auto has more than one rung. The returned
// Report carries PlanCacheHit, QueueWait, and — when tracing is on — the
// TraceID of the query's span tree.
//
// Every query updates the Prometheus registry (strategy/status counters,
// latency and queue-wait histograms); with a Tracer or the slow-query log
// configured, the query additionally builds a span tree, hands it to the
// Tracer, and captures it in the slow log when the wall time meets the
// threshold.
func (s *Service) Query(ctx context.Context, req Request) (*engine.Report, error) {
	e, err := s.lookup(req.Database)
	if err != nil {
		return nil, err
	}
	strat, err := engine.ParseStrategy(strategyName(req.Strategy))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := checkBudgets(req.MaxTuples, int64(req.Timeout), int64(req.Workers)); err != nil {
		return nil, err
	}
	start := time.Now()
	trace := s.startTrace(req.Database)
	rep, err := s.execute(ctx, e, strat, req, trace)
	s.finish(trace, req, rep, err, start)
	return rep, err
}

// checkBudgets rejects a negative limit or worker ask with ErrBadRequest:
// the governor would read a negative limit as no limit at all, and
// grantWorkers a negative ask as the service default.
func checkBudgets(limits ...int64) error {
	for _, l := range limits {
		if l < 0 {
			return fmt.Errorf("%w: tuple budgets, timeouts and workers must be non-negative", ErrBadRequest)
		}
	}
	return nil
}

// startTrace begins a span tree for one query when anything will consume
// it: the configured Tracer, or the slow-query log. Returns nil otherwise,
// which disables tracing end to end at zero cost.
func (s *Service) startTrace(database string) *obs.Trace {
	if s.cfg.Tracer == nil && s.slowLog == nil {
		return nil
	}
	return obs.NewTrace(database)
}

// execute is the admission + plan-cache + execution core of Query, with
// trace spans (queue, plan cache; the engine hangs the rest off the root)
// when trace is non-nil.
func (s *Service) execute(ctx context.Context, e *catalogEntry, strat engine.Strategy, req Request, trace *obs.Trace) (*engine.Report, error) {
	// One atomic load pins this query's catalog version: concurrent ingests
	// swap the entry's pointer, but this query joins the exact instance it
	// loaded here — never a half-applied batch. With sharding on, the group
	// pointer is the one load: it carries the partitioned databases and the
	// exact unsharded catalog they were split from.
	grp := e.group.Load()
	db := e.db.Load()
	if grp != nil {
		db = grp.Full()
	}
	var qspan *obs.Span
	if trace != nil {
		qspan = trace.Root.Child(obs.KindQueue, "admission queue")
	}
	wait, releaseSlot, err := s.acquire(ctx)
	if err != nil {
		qspan.Note("rejected: %v", err)
		qspan.End()
		return nil, err
	}
	qspan.End()
	s.metrics.queueWait.Observe(wait.Seconds())
	defer releaseSlot()
	grant, releaseBudget, err := s.carve(req.MaxTuples)
	if err != nil {
		return nil, err
	}
	defer releaseBudget()
	workers := s.grantWorkers(req.Workers)
	if trace != nil {
		if grant > 0 {
			trace.Root.Note("tuple budget granted: %d", grant)
		}
		if workers > 1 {
			trace.Root.Note("intra-query workers granted: %d", workers)
		}
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts := engine.Options{
		Strategy: strat,
		Limits:   govern.Limits{MaxTuples: grant, Context: ctx},
		Workers:  workers,
	}
	if trace != nil {
		opts.Trace = trace.Root
	}

	// Climb the strategy's ladder (one rung for an explicit strategy; auto
	// starts at the plan it resolves to). Every rung's plan comes from the
	// cache under its own key, so a degraded query on a known scheme
	// derives no plan at all; two names over the same scheme share plans.
	var hit bool
	rungs := 0
	rep, err := engine.Climb(engine.DegradationLadder(strat, e.acyclic), func(rung engine.Strategy) (*engine.Report, error) {
		rungs++
		var plan *engine.Plan
		var err error
		if plan, hit, err = s.cachedPlan(e, db, rung, trace); err != nil {
			return nil, err
		}
		return s.runPlan(grp, db, plan, opts)
	})
	if rungs > 1 {
		s.degraded.Add(1)
	}
	if err != nil {
		return nil, err
	}
	rep.PlanCacheHit = hit
	rep.QueueWait = wait
	return rep, nil
}

// cachedPlan returns the plan for one ladder rung over the query's scheme
// from the plan cache, deriving it on a miss (concurrent misses on one key
// coalesce) under a "plan cache lookup" span. A rung whose derivation
// aborted on the snapshot db returns that abort again without a lookup, its
// span noting the skip.
func (s *Service) cachedPlan(e *catalogEntry, db *relation.Database, rung engine.Strategy, trace *obs.Trace) (*engine.Plan, bool, error) {
	key := planKey(e.fingerprint, rung)
	if m := e.aborts.Load(); m != nil && m.db == db {
		if err, ok := m.errs.Load(rung); ok {
			if trace != nil {
				sp := trace.Root.Child(obs.KindPlanCache, "plan cache lookup")
				sp.Note("skipped: the search for %s aborted on this snapshot", key)
				sp.End()
			}
			return nil, false, err.(error)
		}
	}
	var pcSpan *obs.Span
	if trace != nil {
		pcSpan = trace.Root.Child(obs.KindPlanCache, "plan cache lookup")
	}
	plan, hit, err := s.cache.GetOrCompute(key, func() (*engine.Plan, error) {
		// Only the request that computes the plan runs this callback: hits
		// and coalesced waiters carry no plan span.
		sp := pcSpan.Child(obs.KindPlan, "derive plan")
		defer sp.End()
		return engine.PlanFor(db, engine.Options{Strategy: rung})
	})
	if pcSpan != nil {
		if hit {
			pcSpan.Note("hit: %s", key)
		} else {
			pcSpan.Note("miss: derived plan for %s", key)
		}
		pcSpan.End()
	}
	if errors.Is(err, govern.ErrTupleBudget) {
		e.abortsFor(db).errs.Store(rung, err)
	}
	return plan, hit, err
}

// finish closes out one query: the Prometheus counters and latency
// histogram always; then, when tracing was on, the root span is ended, the
// trace is handed to the Tracer, and the slow-query log captures the query
// if its wall time met the threshold.
func (s *Service) finish(trace *obs.Trace, req Request, rep *engine.Report, err error, start time.Time) {
	wall := time.Since(start)
	status := "ok"
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		status = "rejected"
	case errors.Is(err, govern.ErrTupleBudget), errors.Is(err, govern.ErrDeadline), errors.Is(err, govern.ErrCanceled):
		status = "aborted"
	default:
		status = "failed"
	}
	strategy := strategyName(req.Strategy)
	if rep != nil {
		strategy = rep.Strategy.String()
	}
	s.metrics.queries.Inc(strategy, status)
	s.metrics.duration.Observe(wall.Seconds())
	if rep != nil {
		s.metrics.tuples.Add(rep.Produced)
	}
	if trace == nil {
		return
	}
	if rep != nil {
		rep.TraceID = trace.ID
	}
	if err != nil {
		trace.Root.Note("%s: %v", status, err)
	}
	trace.Root.End()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.FinishQuery(trace)
	}
	if s.slowLog != nil {
		entry := obs.SlowEntry{
			TraceID:  trace.ID,
			Database: req.Database,
			Strategy: strategy,
			Status:   status,
			Start:    start,
			WallMS:   float64(wall) / float64(time.Millisecond),
			Trace:    trace.Root.JSON(),
		}
		if err != nil {
			entry.Error = err.Error()
		}
		if rep != nil {
			entry.QueueWaitMS = float64(rep.QueueWait) / float64(time.Millisecond)
			entry.Cost = rep.Cost
			entry.Produced = rep.Produced
		}
		if s.slowLog.Record(entry) {
			s.metrics.slow.Inc()
		}
	}
}

// strategyName maps the empty request strategy to auto.
func strategyName(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	n := len(s.dbs)
	nviews := len(s.views)
	s.mu.RUnlock()
	remaining := int64(-1)
	if s.cfg.GlobalMaxTuples > 0 {
		remaining = s.budgetRemaining.Load()
	}
	queries := s.metrics.queries
	ok, rejected, aborted, failed := queries.Sum("status", "ok"), queries.Sum("status", "rejected"),
		queries.Sum("status", "aborted"), queries.Sum("status", "failed")
	var storeStats *store.Stats
	if st := s.store.Load(); st != nil {
		snap := st.Stats()
		storeStats = &snap
	}
	cacheStats := s.cache.Stats()
	var walRecords, snapshots int64
	if storeStats != nil {
		walRecords, snapshots = storeStats.WALAppends, storeStats.SnapshotWrites
	}
	return Stats{
		Ready:                 s.ready.Load(),
		Ingests:               s.ingests.Load(),
		WALRecords:            walRecords,
		Snapshots:             snapshots,
		Invalidations:         cacheStats.Invalidations,
		Views:                 nviews,
		ViewsStale:            s.staleViews(),
		ViewDeltaBatches:      s.viewDeltaBatches.Load(),
		ViewRebuilds:          s.viewRebuilds.Load(),
		ViewReducerSkips:      s.viewReducerSkips.Load(),
		Store:                 storeStats,
		Databases:             n,
		Workers:               s.cfg.Workers,
		InFlight:              s.inFlight.Load(),
		Queued:                s.queued.Load(),
		Queries:               ok + aborted + failed,
		Succeeded:             ok,
		Rejected:              rejected,
		Aborted:               aborted,
		Failed:                failed,
		Degraded:              s.degraded.Load(),
		QueryWorkers:          s.cfg.QueryWorkers,
		GlobalTuplesRemaining: remaining,
		PlanCache:             cacheStats,
	}
}
