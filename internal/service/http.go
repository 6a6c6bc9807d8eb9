package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// HTTP/JSON API (served by cmd/joind):
//
//	POST /v1/databases  register a named database (durable when a store is attached)
//	GET  /v1/databases  list the catalog
//	POST /v1/query      join a registered database
//	POST /v1/ingest     apply batched inserts/deletes durably (WAL-backed)
//	POST /v1/views      register a continuous query (materialized ⋈D view)
//	GET  /v1/views      list registered views with maintenance stats
//	GET  /v1/views/{id} one view: maintenance stats + materialized result
//	DELETE /v1/views/{id} drop a view
//	GET  /v1/stats      service + plan-cache + store counters
//	GET  /v1/slow       slow-query log (trace drill-down included)
//	GET  /metrics       Prometheus text exposition
//	GET  /livez         liveness: 200 as soon as the process serves HTTP
//	GET  /readyz        readiness: 503 "recovering" until WAL replay finishes
//	GET  /healthz       readiness-gated health (same behavior as /readyz)
//
// Admission rejections (queue full, queue timeout, global budget) are 429;
// a query's own resource aborts are 422 (tuple budget) or 504 (deadline);
// unknown databases are 404; duplicate registrations are 409; ingest
// against a service with no durable store is 403. Mutations (register,
// ingest) are 503 while the service is not ready — before recovery attaches
// the store, and again during shutdown — so a client can never get a 201/200
// for a write the durable catalog never saw. Request bodies are bounded per
// endpoint (oversized bodies are 413). The request context is propagated
// into the governor, so a dropped connection cancels the query's execution.

// StatusClientClosedRequest is the nonstandard (nginx-convention) status
// reported when the client went away mid-query.
const StatusClientClosedRequest = 499

// Request-body ceilings, enforced with http.MaxBytesReader so one request
// cannot make the daemon buffer an arbitrarily large body. Ingest bodies
// get headroom over store.MaxRecordSize (JSON is less dense than the WAL's
// binary codec; a batch near the record limit still has to be expressible),
// and anything the cap lets through that still encodes past the record
// limit is rejected with 400 by Store.Apply. Registration bodies may carry
// a whole database, so their cap is the snapshot-scale one.
const (
	maxQueryBody    = 1 << 20                     // 1 MiB: query requests are tiny
	maxIngestBody   = 3 * store.MaxRecordSize / 2 // 96 MiB: 1.5× the WAL record limit
	maxRegisterBody = 1 << 30                     // 1 GiB: a full database as JSON
)

// registerRequest is the body of POST /v1/databases.
type registerRequest struct {
	Name string `json:"name"`
	// Relations is the database: a JSON array of
	// {"attrs": [...], "tuples": [[...], ...]} objects.
	Relations *relation.Database `json:"relations"`
}

// queryRequest is the body of POST /v1/query.
type queryRequest struct {
	Database  string `json:"database"`
	Strategy  string `json:"strategy,omitempty"`
	MaxTuples int64  `json:"max_tuples,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Workers asks for intra-query parallelism (0 = service default,
	// clamped to the configured per-query cap).
	Workers int `json:"workers,omitempty"`
	// IncludeResult returns the result tuples (capped by MaxResultTuples).
	IncludeResult bool `json:"include_result,omitempty"`
	// MaxResultTuples caps the tuples echoed back when IncludeResult is set
	// (0 = all; negative is a 400). The join itself is not truncated — only
	// the response body.
	MaxResultTuples int `json:"max_result_tuples,omitempty"`
}

// queryResponse is the body of a successful POST /v1/query.
type queryResponse struct {
	Database string `json:"database"`
	Strategy string `json:"strategy"`
	// TraceID identifies the query's span tree (present when the service
	// runs with a tracer or the slow-query log enabled).
	TraceID     string  `json:"trace_id,omitempty"`
	Cost        int64   `json:"cost"`
	Produced    int64   `json:"produced"`
	ResultCount int     `json:"result_count"`
	CacheHit    bool    `json:"cache_hit"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// Parallelism is the worker count the query ran with (1 = sequential):
	// its ask, clamped to the per-query cap.
	Parallelism int `json:"parallelism"`
	// Shards is how many shards the query scattered across (absent or 1 =
	// unsharded execution; Cost and Produced are merged totals either way).
	Shards int      `json:"shards,omitempty"`
	Plan   string   `json:"plan,omitempty"`
	Notes  []string `json:"notes,omitempty"`
	// Result is present when include_result was set: the result relation,
	// possibly truncated to max_result_tuples (see ResultTruncated). Both
	// stay last and unset: writeWithResult appends them.
	Result          *relation.Relation `json:"result,omitempty"`
	ResultTruncated bool               `json:"result_truncated,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure for scripting: "overloaded",
	// "resource_limit", "deadline", "canceled", "not_found", "conflict",
	// "bad_request", "too_large", "read_only", "unavailable", or
	// "internal".
	Kind string `json:"kind"`
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/databases", s.handleRegister)
	mux.HandleFunc("GET /v1/databases", s.handleListDatabases)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/views", s.handleRegisterView)
	mux.HandleFunc("GET /v1/views", s.handleListViews)
	mux.HandleFunc("GET /v1/views/{id}", s.handleGetView)
	mux.HandleFunc("DELETE /v1/views/{id}", s.handleDropView)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/slow", s.handleSlow)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Liveness is unconditional: the process is up and serving HTTP.
	// Readiness (and the readiness-gated /healthz) answers 503 while the
	// service recovers its WAL or drains for shutdown, so load balancers
	// and scripts/smoke_joind.sh hold traffic until replay completes.
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /healthz", s.handleReady)
	return mux
}

func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
		return
	}
	fmt.Fprintln(w, "ok")
}

// gateMutation rejects mutation requests (register, ingest) with 503 while
// the service is not ready — during startup recovery the durable store is
// not attached yet, so an accepted mutation would be silently non-durable
// (and during shutdown the store is about to close under it). Reads stay
// available; load balancers steer by /readyz.
func (s *Service) gateMutation(w http.ResponseWriter) bool {
	if s.Ready() {
		return true
	}
	writeError(w, http.StatusServiceUnavailable, "unavailable",
		"service is recovering or shutting down; mutations are not accepted")
	return false
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !s.gateMutation(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRegisterBody)
	var req registerRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	if req.Relations == nil {
		writeError(w, http.StatusBadRequest, "bad_request", "missing \"relations\"")
		return
	}
	info, err := s.Register(req.Name, req.Relations)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleListDatabases(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Databases())
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	var req queryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	if req.MaxResultTuples < 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "max_result_tuples must be a non-negative integer")
		return
	}
	rep, err := s.Query(r.Context(), Request{
		Database:  req.Database,
		Strategy:  req.Strategy,
		MaxTuples: req.MaxTuples,
		Timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		Workers:   req.Workers,
	})
	if err != nil {
		writeServiceError(w, err)
		return
	}
	resp := queryResponse{
		Database:    req.Database,
		Strategy:    rep.Strategy.String(),
		TraceID:     rep.TraceID,
		Cost:        rep.Cost,
		Produced:    rep.Produced,
		ResultCount: rep.Result.Len(),
		CacheHit:    rep.PlanCacheHit,
		QueueWaitMS: float64(rep.QueueWait) / float64(time.Millisecond),
		Parallelism: rep.Parallelism,
		Shards:      rep.Shards,
		Plan:        rep.Plan,
		Notes:       rep.Notes,
	}
	if req.IncludeResult {
		writeWithResult(w, resp, rep.Result, req.MaxResultTuples)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestMutation is one relation's changes within POST /v1/ingest.
type ingestMutation struct {
	// Relation indexes the database's relations (registration order).
	Relation int `json:"relation"`
	// Inserts and Deletes are tuples in the same JSON shape as registration
	// ([[1,"x"], ...]). Deletes apply before inserts.
	Inserts []relation.Tuple `json:"inserts,omitempty"`
	Deletes []relation.Tuple `json:"deletes,omitempty"`
}

// ingestRequest is the body of POST /v1/ingest. The whole batch is one WAL
// record: it is applied atomically and acknowledged only once durable under
// the store's fsync policy.
type ingestRequest struct {
	Database  string           `json:"database"`
	Mutations []ingestMutation `json:"mutations"`
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.gateMutation(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBody)
	var req ingestRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	batch := make(store.Batch, len(req.Mutations))
	for i, m := range req.Mutations {
		batch[i] = store.Mutation{Relation: m.Relation, Inserts: m.Inserts, Deletes: m.Deletes}
	}
	res, err := s.Ingest(r.Context(), req.Database, batch)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// viewResponse is the body of GET /v1/views/{id}: the view's info and its
// materialized result (possibly truncated by the max_result query
// parameter), which writeWithResult appends after the info.
type viewResponse struct {
	ViewInfo
	Result          *relation.Relation `json:"result,omitempty"`
	ResultTruncated bool               `json:"result_truncated,omitempty"`
}

func (s *Service) handleRegisterView(w http.ResponseWriter, r *http.Request) {
	if !s.gateMutation(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	// The body is the view's definition: {"id", "database"}.
	var def store.ViewDef
	if err := decodeJSON(w, r, &def); err != nil {
		return
	}
	info, err := s.RegisterView(def)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleListViews(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Views())
}

func (s *Service) handleGetView(w http.ResponseWriter, r *http.Request) {
	info, result, err := s.ViewResult(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	maxResult := 0
	if q := r.URL.Query().Get("max_result"); q != "" {
		if maxResult, err = strconv.Atoi(q); err != nil || maxResult < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "max_result must be a non-negative integer")
			return
		}
	}
	writeWithResult(w, viewResponse{ViewInfo: info}, result, maxResult)
}

func (s *Service) handleDropView(w http.ResponseWriter, r *http.Request) {
	if !s.gateMutation(w) {
		return
	}
	if err := s.DropView(r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// slowResponse is the body of GET /v1/slow.
type slowResponse struct {
	Enabled     bool            `json:"enabled"`
	ThresholdMS float64         `json:"threshold_ms"`
	Capacity    int             `json:"capacity"`
	Recorded    int64           `json:"recorded"`
	Entries     []obs.SlowEntry `json:"entries"`
}

func (s *Service) handleSlow(w http.ResponseWriter, r *http.Request) {
	l := s.slowLog
	resp := slowResponse{Enabled: l != nil, Entries: []obs.SlowEntry{}}
	if l != nil {
		resp.ThresholdMS = float64(l.Threshold()) / float64(time.Millisecond)
		resp.Capacity = l.Capacity()
		resp.Recorded = l.Recorded()
		resp.Entries = l.Entries()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics().WriteText(w)
}

// decodeJSON parses the body — one JSON object, then only whitespace — into
// v, writing a 400 (or 413 when the body blew its MaxBytesReader cap) and
// returning non-nil on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if !errors.As(err, &tooBig) {
			err = errors.New("unexpected data after the request object")
		}
	}
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds the %d-byte limit for this endpoint", tooBig.Limit))
		return err
	}
	writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	return err
}

// writeServiceError maps a service/engine/govern error to its HTTP status.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownDatabase), errors.Is(err, ErrUnknownView):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ErrDuplicateDatabase), errors.Is(err, ErrDuplicateView):
		writeError(w, http.StatusConflict, "conflict", err.Error())
	case errors.Is(err, ErrViewStale):
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, govern.ErrTupleBudget):
		writeError(w, http.StatusUnprocessableEntity, "resource_limit", err.Error())
	case errors.Is(err, govern.ErrDeadline):
		writeError(w, http.StatusGatewayTimeout, "deadline", err.Error())
	case errors.Is(err, govern.ErrCanceled):
		writeError(w, StatusClientClosedRequest, "canceled", err.Error())
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, ErrReadOnly):
		writeError(w, http.StatusForbidden, "read_only", err.Error())
	case errors.Is(err, ErrUnavailable):
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeWithResult writes head, a 200 body whose Result and ResultTruncated
// (its last fields) are left unset, with the result spliced in as those
// fields: at most max tuples (max <= 0 = all) in sorted order, appended
// straight from the result's block, and result_truncated when any were cut.
// The bytes are the ones writeJSON would write with the fields set.
func writeWithResult(w http.ResponseWriter, head any, result *relation.Relation, max int) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // as writeJSON
	if err := enc.Encode(head); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	body := append(bytes.TrimSuffix(buf.Bytes(), []byte("}\n")), `,"result":`...)
	body, cut, err := result.AppendJSON(body, max)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	if cut {
		body = append(body, `,"result_truncated":true`...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, "}\n"...))
}
