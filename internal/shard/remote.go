package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/govern"
	"repro/internal/relation"
)

// HTTPExecutor fans shard tasks out to remote joind peers over the
// service's existing JSON wire format: shard i's task becomes a POST
// /v1/query to peers[i] with include_result set, and the decoded response
// is the shard's Result. Each peer must hold shard i's partition of the
// database under the same catalog name — the coordinator pushes partitions
// at registration and routes ingest batches (see internal/service).
//
// A remote peer cannot share an in-process budget pool, so SharedBudget is
// false: Run hands every peer the full tuple grant and post-checks the
// summed charges, which preserves the abort boundary (any single shard
// exceeding the grant aborts remotely with a resource_limit error; a
// collective overshoot aborts at the gather).
type HTTPExecutor struct {
	peers  []string
	client *http.Client
}

// NewHTTPExecutor returns an executor fanning out to the given peer base
// URLs (one per shard, e.g. "http://host:port"). client nil uses a default
// with a generous timeout; per-query deadlines ride the request context.
func NewHTTPExecutor(peers []string, client *http.Client) *HTTPExecutor {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	return &HTTPExecutor{peers: append([]string(nil), peers...), client: client}
}

// Peers returns the configured peer base URLs.
func (e *HTTPExecutor) Peers() []string { return append([]string(nil), e.peers...) }

// Shards implements Executor.
func (e *HTTPExecutor) Shards() int { return len(e.peers) }

// SharedBudget implements Executor: remote governors cannot share a pool.
func (e *HTTPExecutor) SharedBudget() bool { return false }

// remoteQuery mirrors the service's queryRequest wire format.
type remoteQuery struct {
	Database              string `json:"database"`
	Strategy              string `json:"strategy,omitempty"`
	MaxTuples             int64  `json:"max_tuples,omitempty"`
	MaxIntermediateTuples int64  `json:"max_intermediate_tuples,omitempty"`
	TimeoutMS             int64  `json:"timeout_ms,omitempty"`
	Workers               int    `json:"workers,omitempty"`
	IncludeResult         bool   `json:"include_result"`
}

// remoteResponse mirrors the fields of the service's queryResponse the
// gather needs.
type remoteResponse struct {
	Cost            int64              `json:"cost"`
	Produced        int64              `json:"produced"`
	Plan            string             `json:"plan"`
	Notes           []string           `json:"notes"`
	Result          *relation.Relation `json:"result"`
	ResultTruncated bool               `json:"result_truncated"`
}

// remoteErrorBody mirrors the service's errorResponse.
type remoteErrorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// remoteAbort is a typed abort relayed from a peer; it unwraps to the
// govern sentinel matching the peer's error kind so the coordinator's
// error handling (and the engine's degradation ladder) treat remote and
// in-process aborts identically.
type remoteAbort struct {
	sentinel error
	msg      string
}

func (e *remoteAbort) Error() string { return e.msg }
func (e *remoteAbort) Unwrap() error { return e.sentinel }

// Execute implements Executor: POST the task to peer i and decode the
// response.
func (e *HTTPExecutor) Execute(ctx context.Context, i int, task Task) (*Result, error) {
	peer := e.peers[i]
	q := remoteQuery{
		Database:              task.Database,
		Strategy:              task.Plan.Strategy.String(),
		MaxTuples:             task.Limits.MaxTuples,
		MaxIntermediateTuples: task.Limits.MaxIntermediateTuples,
		Workers:               task.Workers,
		IncludeResult:         true,
	}
	if !task.Limits.Deadline.IsZero() {
		ms := time.Until(task.Limits.Deadline).Milliseconds()
		if ms <= 0 {
			return nil, &govern.AbortError{Op: fmt.Sprintf("shard %d (%s)", i, peer), Sentinel: govern.ErrDeadline}
		}
		q.TimeoutMS = ms
	}
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, &govern.AbortError{Op: fmt.Sprintf("shard %d (%s)", i, peer), Sentinel: govern.ErrCanceled, Cause: ctx.Err()}
		}
		return nil, fmt.Errorf("shard %d (%s): %w", i, peer, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, fmt.Errorf("shard %d (%s): read response: %w", i, peer, err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb remoteErrorBody
		_ = json.Unmarshal(raw, &eb)
		msg := fmt.Sprintf("shard %d (%s): %s: %s", i, peer, resp.Status, eb.Error)
		switch eb.Kind {
		case "resource_limit":
			return nil, &remoteAbort{sentinel: govern.ErrTupleBudget, msg: msg}
		case "deadline":
			return nil, &remoteAbort{sentinel: govern.ErrDeadline, msg: msg}
		case "canceled":
			return nil, &remoteAbort{sentinel: govern.ErrCanceled, msg: msg}
		default:
			return nil, fmt.Errorf("%s", msg)
		}
	}
	var qr remoteResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, fmt.Errorf("shard %d (%s): decode response: %w", i, peer, err)
	}
	if qr.Result == nil {
		return nil, fmt.Errorf("shard %d (%s): peer response carried no result relation", i, peer)
	}
	if qr.ResultTruncated {
		return nil, fmt.Errorf("shard %d (%s): peer truncated the shard result; raise the peer's result cap", i, peer)
	}
	return &Result{
		Output:   qr.Result,
		Cost:     qr.Cost,
		Produced: qr.Produced,
		Plan:     qr.Plan,
		Notes:    qr.Notes,
	}, nil
}
