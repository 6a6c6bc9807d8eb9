package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
)

// The sharding coordinator. With Config.Shards > 1 every registered
// database carries a shard.Group (built at registration, rebased on every
// ingest batch under ingestMu), /v1/query routes through shard.Run, and —
// when Config.ShardPeers is set — registration pushes each peer its
// partition and ingest routes each batch's tuples to the owning peers in
// WAL order.

// planKey builds the plan-cache key: fingerprint#strategy. Ingest drops a
// database's plans by the fingerprint+"#" prefix. The shard layout is not in
// the key: it is fixed at New, and shard.Run checks each plan it is handed
// for cleanness on every execution.
func planKey(fingerprint string, strat engine.Strategy) string {
	return fingerprint + "#" + strat.String()
}

// executor picks the shard executor for a group: the configured remote
// fan-out when peers are set, else in-process scatter over the group's own
// shard databases.
func (s *Service) executor(grp *shard.Group) shard.Executor {
	if s.remoteExec != nil {
		return s.remoteExec
	}
	return shard.NewInProcess(grp)
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
	rep, err := shard.Run(grp, plan, opts, s.executor(grp))
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

// shardPushClient serves partition pushes and routed ingests to peers.
// Per-call urgency rides the request context; the client timeout is a
// backstop against a peer that accepts the connection and stalls.
var shardPushClient = &http.Client{Timeout: 5 * time.Minute}

// pushGroup registers each shard's partition on its peer: POST
// /v1/databases with the group's catalog name and shard i's database. Every
// peer must be empty of the name (the service's own no-replace rule applies
// remotely too); a failed push fails the coordinator's registration.
func (s *Service) pushGroup(g *shard.Group) error {
	for i, peer := range s.remoteExec.Peers() {
		req := registerRequest{Name: g.Name(), Relations: g.DB(i)}
		if err := shardPostJSON(context.Background(), peer+"/v1/databases", req); err != nil {
			return fmt.Errorf("shard %d (%s): %w", i, peer, err)
		}
	}
	return nil
}

// pushIngest routes one acknowledged batch to the owning peers: the batch
// is split by the group's Owner rule (broadcast-relation mutations fan out
// to every peer) and each non-empty routed batch is POSTed to its peer's
// /v1/ingest. Called under the entry's ingestMu, so peers receive batches
// in WAL order. The coordinator's local apply is already durable when this
// runs; a push failure therefore fails the ingest *after* the fact — the
// caller surfaces the error and the peer set is considered stale (peers
// must be rebuilt from the coordinator's catalog; see docs/SHARDING.md).
func (s *Service) pushIngest(ctx context.Context, g *shard.Group, database string, batch store.Batch) error {
	routed := batch.Route(g.Shards(), g.Owner)
	for i, peer := range s.remoteExec.Peers() {
		if len(routed[i]) == 0 {
			continue
		}
		req := ingestRequest{Database: database, Mutations: make([]ingestMutation, len(routed[i]))}
		for j, m := range routed[i] {
			req.Mutations[j] = ingestMutation{Relation: m.Relation, Inserts: m.Inserts, Deletes: m.Deletes}
		}
		if err := shardPostJSON(ctx, peer+"/v1/ingest", req); err != nil {
			return fmt.Errorf("shard %d (%s): %w", i, peer, err)
		}
	}
	return nil
}

// shardPostJSON POSTs body as JSON and fails on any non-2xx status, folding the
// peer's error body into the message.
func shardPostJSON(ctx context.Context, url string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := shardPushClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return nil
}
