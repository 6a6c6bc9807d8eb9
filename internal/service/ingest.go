package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/store"
)

// The durable mutation path. AttachStore hands the service a WAL-backed
// store (see internal/store): recovered databases are registered into the
// catalog, new registrations are persisted, and Ingest routes batched
// inserts/deletes through the store's write-ahead log before swapping the
// entry's catalog pointer. Queries are never blocked by ingest — they run
// against the immutable catalog version they loaded at admission.

// IngestResult summarizes one acknowledged ingest batch.
type IngestResult struct {
	Database string `json:"database"`
	// Inserted and Deleted are effective counts: tuples that actually
	// changed presence (re-inserting an existing tuple or deleting an
	// absent one is a no-op).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Tuples is the catalog's total tuple count after the batch.
	Tuples int `json:"tuples"`
	// WALBytes is the size of the batch's WAL record.
	WALBytes int64 `json:"wal_bytes"`
	// PlansInvalidated counts plan-cache entries dropped because this
	// database changed (plans are instance-dependent: optimizer search
	// reads cardinalities).
	PlansInvalidated int `json:"plans_invalidated"`
	// ViewsMaintained counts the registered views this batch's delta was
	// propagated into before the batch was acknowledged.
	ViewsMaintained int `json:"views_maintained"`
}

// AttachStore wires the durable store into the service: every database the
// store recovered (snapshot + WAL replay) is registered into the catalog,
// and subsequent Register and Ingest calls go through the store. Call once,
// before serving traffic; registering the recovered names fails if any are
// already taken.
func (s *Service) AttachStore(st *store.Store) error {
	names := st.Names()
	sort.Strings(names)
	for _, name := range names {
		db, err := st.Current(name)
		if err != nil {
			return err
		}
		if _, err := s.register(name, db); err != nil {
			return fmt.Errorf("service: attach store: %w", err)
		}
	}
	// Re-register the durable continuous queries and rebuild each from the
	// recovered catalog; their materialized state is derivable and never
	// persisted, so recovery is Compile + Rebuild per definition.
	if err := s.attachViews(st); err != nil {
		return err
	}
	s.store.Store(st)
	return nil
}

// Store returns the attached durable store, nil when the service is
// in-memory only.
func (s *Service) Store() *store.Store { return s.store.Load() }

// SetReady flips the readiness gate served by /readyz and /healthz. joind
// holds the service not-ready until recovery finishes, and flips it back off
// when shutdown begins.
func (s *Service) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the readiness gate.
func (s *Service) Ready() bool { return s.ready.Load() }

// Ingest applies one batch of inserts/deletes to a registered database,
// durably: the batch is WAL-appended (fsynced under the store's policy)
// before the in-memory catalog pointer swaps, and plan-cache entries for the
// database's fingerprint are invalidated right after the swap. In-flight
// queries are untouched — they keep the catalog version they loaded at
// admission; queries admitted after Ingest returns see the post-batch
// catalog.
//
// Without an attached store the service is read-only and Ingest fails with
// ErrReadOnly.
func (s *Service) Ingest(ctx context.Context, database string, batch store.Batch) (IngestResult, error) {
	start := time.Now()
	res, err := s.ingest(ctx, database, batch)
	status := "ok"
	switch {
	case err == nil:
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrUnknownDatabase), errors.Is(err, ErrReadOnly):
		status = "rejected"
	default:
		status = "failed"
	}
	s.metrics.ingests.Inc(status)
	s.metrics.ingestDuration.Observe(time.Since(start).Seconds())
	return res, err
}

// ingest is Ingest without the metrics bookkeeping.
func (s *Service) ingest(ctx context.Context, database string, batch store.Batch) (IngestResult, error) {
	st := s.store.Load()
	if st == nil {
		return IngestResult{}, ErrReadOnly
	}
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}
	e, err := s.lookup(database)
	if err != nil {
		return IngestResult{}, err
	}
	// Serialize append + swap per entry: Apply acknowledges batches in WAL
	// order, and holding ingestMu across the swap keeps the catalog pointer
	// in that same order — and, held across maintainViews, hands every
	// registered view this batch's delta before any later batch's.
	e.ingestMu.Lock()
	applied, err := st.Apply(database, batch)
	if err != nil {
		e.ingestMu.Unlock()
		return IngestResult{}, mapStoreError(err)
	}
	e.db.Store(applied.DB)
	if g := e.group.Load(); g != nil {
		// Rebase the shard layout onto the post-batch catalog: the batch's
		// tuples route to their owning shards, in WAL order under this same
		// lock.
		ng, gerr := g.Rebase(applied.DB, batch)
		if gerr != nil {
			e.ingestMu.Unlock()
			return IngestResult{}, fmt.Errorf("service: shard ingest %q: %w", database, gerr)
		}
		e.group.Store(ng)
		s.shardIngestRouted.Add(int64(batch.Tuples()))
	}
	// The plan cache's only staleness rule: planning reads cardinalities and
	// sketches of the pre-batch instance, so drop every strategy's plan for
	// this fingerprint right after the swap. A query that pinned the old
	// snapshot and derives its plan after this point may still cache it;
	// that plan is correct for the scheme (Theorem 1). Other databases
	// sharing the scheme lose their plans too — a recomputation only.
	invalidated := s.cache.InvalidatePrefix(e.fingerprint + "#")
	// Fold the batch into the entry's statistics sketches against the
	// post-batch relations (exact rebuilds trigger when accumulated drift
	// crosses the threshold), under ingestMu so sketch state tracks the
	// catalog in WAL order — view or no view.
	for _, m := range batch {
		e.sketches.Apply(m.Relation, m.Inserts, m.Deletes, applied.DB.Relation(m.Relation))
	}
	maintained := s.maintainViews(database, batch, applied.DB)
	e.ingestMu.Unlock()
	s.ingests.Add(1)

	return IngestResult{
		Database:         database,
		Inserted:         applied.Inserted,
		Deleted:          applied.Deleted,
		Tuples:           applied.DB.TotalTuples(),
		WALBytes:         applied.WALBytes,
		PlansInvalidated: invalidated,
		ViewsMaintained:  maintained,
	}, nil
}

// Close shuts the service down in dependency order: the readiness gate
// flips off, in-flight and queued queries drain (bounded by ctx), and only
// then does the durable store flush, checkpoint, and close. Queries hold
// immutable catalog snapshots, so a query that outlives the drain window
// still completes correctly — the ordering guarantee is that the store's
// final checkpoint happens after the drain, not under live query load.
// Close is idempotent only in its store part; call it once.
func (s *Service) Close(ctx context.Context) error {
	s.SetReady(false)
	var drainErr error
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.inFlight.Load() > 0 || s.queued.Load() > 0 {
		select {
		case <-ctx.Done():
			drainErr = fmt.Errorf("service: drain incomplete (%d in flight, %d queued): %w",
				s.inFlight.Load(), s.queued.Load(), ctx.Err())
		case <-tick.C:
			continue
		}
		break
	}
	if st := s.store.Load(); st != nil {
		if err := st.Close(); err != nil && !errors.Is(err, store.ErrClosed) {
			return errors.Join(drainErr, err)
		}
	}
	return drainErr
}
