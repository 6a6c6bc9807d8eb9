// Command joind is a concurrent join-serving daemon: it holds a catalog of
// registered databases, caches derived plans per scheme fingerprint (the
// paper's Theorems 1–2 make one plan per scheme correct and quasi-optimal
// for every instance), and serves joins over HTTP/JSON with admission
// control and a global tuple budget. With -data-dir set, the catalog is
// durable: registrations and batched ingests are write-ahead logged and
// snapshot-checkpointed, and a restart replays the log before the daemon
// reports ready (see docs/STORAGE.md).
//
// Usage:
//
//	joind [-addr :8080] [-workers n] [-queue-depth n] [-queue-timeout 5s]
//	      [-plan-cache 128] [-global-max-tuples n] [-max-tuples-per-query n]
//	      [-default-timeout d] [-query-workers n]
//	      [-slow-threshold d] [-slow-log n]
//	      [-preload name=r1.tsv,r2.tsv,...]
//	      [-data-dir dir] [-fsync always|interval|never]
//	      [-fsync-interval 100ms] [-checkpoint-every n]
//	      [-shards n] [-shard-broadcast-threshold n]
//
// A negative number for any numeric flag but -checkpoint-every and
// -shard-broadcast-threshold, whose help gives negatives a meaning, is a
// usage error (exit status 2), as a negative budget is a 400 in a request.
//
// With -shards N > 1, every registered database is hash-partitioned on a
// join attribute chosen from its hypergraph and queries scatter across an
// in-process shard group. See docs/SHARDING.md.
//
// API (see docs/SERVICE.md for the full reference and a worked session,
// docs/OBSERVABILITY.md for the metrics and slow-query log, and
// docs/STORAGE.md for durability semantics):
//
//	POST /v1/databases  register a named database (durable with -data-dir)
//	GET  /v1/databases  list the catalog
//	POST /v1/query      join a registered database
//	POST /v1/ingest     apply batched inserts/deletes durably
//	GET  /v1/stats      service + plan-cache + store counters
//	GET  /v1/slow       slow-query log with span-tree drill-down
//	GET  /metrics       Prometheus text exposition
//	GET  /livez         liveness (200 as soon as HTTP is up)
//	GET  /readyz        readiness (503 "recovering" until WAL replay finishes)
//	GET  /healthz       readiness-gated health (same as /readyz)
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: readiness flips off,
// the HTTP server stops accepting connections and drains in-flight requests,
// then in-flight queries finish and the store flushes its WALs and writes a
// final checkpoint, so the next start replays nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/failpoint"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent query executions (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "queries allowed to wait for a worker before 429 (0 = 4×workers)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max time a query waits for a worker before 429 (0 = 5s)")
	planCache := flag.Int("plan-cache", 0, "plan cache capacity in entries (0 = default)")
	globalMaxTuples := flag.Int64("global-max-tuples", 0, "total tuple budget across in-flight queries (0 = unlimited)")
	maxTuplesPerQuery := flag.Int64("max-tuples-per-query", 0, "per-query tuple budget cap (0 = fair share of global budget)")
	defaultTimeout := flag.Duration("default-timeout", 0, "per-query deadline when the request sets none (0 = none)")
	queryWorkers := flag.Int("query-workers", 0, "intra-query parallelism cap per query (0 or 1 = sequential)")
	slowThreshold := flag.Duration("slow-threshold", 0, "capture queries at least this slow in the slow-query log, with span trees (0 = disabled; 1ns = everything)")
	slowLogSize := flag.Int("slow-log", 0, "slow-query log capacity in entries (0 = default)")
	preload := flag.String("preload", "", "semicolon-separated name=r1.tsv,r2.tsv,... databases to register at startup")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	dataDir := flag.String("data-dir", "", "durable store directory: WAL-backed ingest, snapshot recovery (empty = in-memory only, ingest disabled)")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy: always (durable per batch), interval, never")
	fsyncInterval := flag.Duration("fsync-interval", 0, "WAL fsync cadence under -fsync interval (0 = 100ms)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "WAL records per database before an automatic snapshot checkpoint (0 = default 1024, negative = manual only)")
	shards := flag.Int("shards", 0, "hash-partition every database across this many shards and scatter queries (0 or 1 = off)")
	shardBroadcastThreshold := flag.Int("shard-broadcast-threshold", 0, "broadcast relations smaller than this instead of partitioning (0 = default, negative = never broadcast by size)")
	// One strategy registry feeds every CLI surface: the usage footer below
	// and joinrun's -strategy flag both print engine.StrategyNames(), so a
	// newly registered strategy shows up everywhere without hand-edits.
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nQuery strategies (POST /v1/query \"strategy\"): %s\n",
			strings.Join(engine.StrategyNames(), ", "))
	}
	flag.Parse()
	if bad := negativeFlags(); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "joind: %s must not be negative\n", strings.Join(bad, ", "))
		os.Exit(2)
	}

	// Crash/fault injection for the recovery harness and smoke tests; unset
	// in normal operation.
	if err := failpoint.EnableFromEnv("JOIND_FAILPOINTS"); err != nil {
		log.Fatal(err)
	}

	svc := service.New(service.Config{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		QueueTimeout:       *queueTimeout,
		PlanCacheSize:      *planCache,
		GlobalMaxTuples:    *globalMaxTuples,
		MaxTuplesPerQuery:  *maxTuplesPerQuery,
		DefaultTimeout:     *defaultTimeout,
		QueryWorkers:       *queryWorkers,
		SlowQueryThreshold: *slowThreshold,
		SlowLogSize:        *slowLogSize,
		Shards:             *shards,

		ShardBroadcastThreshold: *shardBroadcastThreshold,
	})

	// Serve HTTP immediately (liveness), but hold readiness until the store
	// has replayed its snapshot + WAL tail and the preloads are registered.
	svc.SetReady(false)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		cfg := svc.Config()
		log.Printf("joind: listening on %s (workers %d, queue depth %d, query workers %d)",
			*addr, cfg.Workers, cfg.QueueDepth, cfg.QueryWorkers)
		errCh <- srv.ListenAndServe()
	}()

	readyCh := make(chan error, 1)
	go func() {
		readyCh <- startCatalog(svc, *dataDir, *fsyncPolicy, *fsyncInterval, *checkpointEvery, *preload)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case err := <-errCh:
			log.Fatal(err)
		case err := <-readyCh:
			if err != nil {
				log.Fatal(err)
			}
			svc.SetReady(true)
			log.Printf("joind: ready")
		case s := <-sig:
			log.Printf("joind: %v; draining for up to %s", s, *drain)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			// Stop accepting connections and drain in-flight HTTP first,
			// then drain queries and close the store (final checkpoint).
			if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				cancel()
				log.Fatal(err)
			}
			if err := svc.Close(ctx); err != nil {
				cancel()
				log.Fatal(err)
			}
			cancel()
			log.Printf("joind: clean shutdown")
			return
		}
	}
}

// startCatalog opens the durable store (when configured), recovers its
// databases into the service, and registers the -preload specs. With a store
// attached, preloaded names that already exist in the recovered catalog are
// skipped — the durable copy, which may contain later ingests, wins.
func startCatalog(svc *service.Service, dataDir, fsyncPolicy string, fsyncInterval time.Duration, checkpointEvery int, preload string) error {
	if dataDir != "" {
		policy, err := store.ParseFsyncPolicy(fsyncPolicy)
		if err != nil {
			return err
		}
		start := time.Now()
		st, err := store.Open(dataDir, store.Options{
			Fsync:           policy,
			FsyncInterval:   fsyncInterval,
			CheckpointEvery: checkpointEvery,
		})
		if err != nil {
			return fmt.Errorf("joind: open store %s: %w", dataDir, err)
		}
		if err := svc.AttachStore(st); err != nil {
			return err
		}
		stats := st.Stats()
		log.Printf("joind: store %s recovered in %s (%d databases, %d WAL records replayed, %d torn bytes dropped, fsync=%s)",
			dataDir, time.Since(start).Round(time.Millisecond), stats.Databases,
			stats.ReplayedRecords, stats.TornTailBytes, policy)
	}
	if preload != "" {
		if err := preloadDatabases(svc, preload); err != nil {
			return err
		}
	}
	return nil
}

// preloadDatabases registers semicolon-separated name=file,file,... specs,
// skipping names already recovered from the durable store.
func preloadDatabases(svc *service.Service, specs string) error {
	existing := make(map[string]bool)
	for _, info := range svc.Databases() {
		existing[info.Name] = true
	}
	for _, spec := range strings.Split(specs, ";") {
		name, files, ok := strings.Cut(strings.TrimSpace(spec), "=")
		if !ok {
			return fmt.Errorf("joind: -preload entry %q is not name=files", spec)
		}
		if existing[name] {
			log.Printf("joind: preload %q skipped (already in recovered catalog)", name)
			continue
		}
		var rels []*relation.Relation
		for _, path := range strings.Split(files, ",") {
			f, err := os.Open(strings.TrimSpace(path))
			if err != nil {
				return err
			}
			rel, err := relation.ReadTSV(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %v", path, err)
			}
			rels = append(rels, rel)
		}
		db, err := relation.NewDatabase(rels...)
		if err != nil {
			return err
		}
		info, err := svc.Register(name, db)
		if err != nil {
			return err
		}
		log.Printf("joind: preloaded %q (%d relations, %d tuples, acyclic=%v)",
			info.Name, info.Relations, info.Tuples, info.Acyclic)
	}
	return nil
}

// negativeFlags names the set numeric flags holding a negative value,
// except -checkpoint-every and -shard-broadcast-threshold, where a negative
// value means "manual checkpoints only" and "never broadcast by size".
func negativeFlags() []string {
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "checkpoint-every" || f.Name == "shard-broadcast-threshold" {
			return
		}
		var negative bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			negative = v < 0
		case int64:
			negative = v < 0
		case time.Duration:
			negative = v < 0
		}
		if negative {
			bad = append(bad, "-"+f.Name)
		}
	})
	return bad
}
