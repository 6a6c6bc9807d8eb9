package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

func triangleDB(t *testing.T) *relation.Database {
	t.Helper()
	db, err := workload.TriangleSpec{Nodes: 12, Edges: 40}.TriangleDatabase(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRegisterAndCatalog(t *testing.T) {
	s := New(Config{Workers: 2})
	info, err := s.Register("tri", triangleDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if info.Relations != 3 || info.Acyclic || info.Fingerprint == "" {
		t.Errorf("info = %+v", info)
	}
	if _, err := s.Register("tri", triangleDB(t)); !errors.Is(err, ErrDuplicateDatabase) {
		t.Errorf("duplicate register: %v", err)
	}
	if _, err := s.Register("", triangleDB(t)); err == nil {
		t.Error("empty name accepted")
	}
	dbs := s.Databases()
	if len(dbs) != 1 || dbs[0].Name != "tri" {
		t.Errorf("catalog = %+v", dbs)
	}
}

// TestRepeatQueryIsPlanCacheHit is the acceptance criterion: a repeated
// query on the same scheme must be a plan-cache hit — no optimizer search —
// verified through the stats counters.
func TestRepeatQueryIsPlanCacheHit(t *testing.T) {
	s := New(Config{Workers: 2})
	db := triangleDB(t)
	if _, err := s.Register("tri", db); err != nil {
		t.Fatal(err)
	}
	rep1, err := s.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.PlanCacheHit {
		t.Error("first query reported a cache hit")
	}
	rep2, err := s.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.PlanCacheHit {
		t.Error("second query was not a cache hit")
	}
	if !rep2.Result.Equal(db.Join()) {
		t.Error("cached-plan result != ⋈D")
	}
	st := s.Stats()
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 1 {
		t.Errorf("plan cache stats = %+v, want 1 miss then 1 hit", st.PlanCache)
	}
	if st.Queries != 2 || st.Succeeded != 2 {
		t.Errorf("stats = %+v, want 2 queries, 2 succeeded", st)
	}

	// A second name over the SAME scheme shares the cached plan: the
	// fingerprint, not the name, is the key.
	if _, err := s.Register("tri2", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	rep3, err := s.Query(context.Background(), Request{Database: "tri2"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.PlanCacheHit {
		t.Error("same-scheme database did not share the cached plan")
	}
}

func TestQueryUnknownDatabaseAndBadStrategy(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Query(context.Background(), Request{Database: "nope"}); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("unknown db: %v", err)
	}
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "bogus"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad strategy: %v", err)
	}
}

func TestQueueTimeoutRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, QueueTimeout: 20 * time.Millisecond})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	s.slots <- struct{}{} // occupy the only worker slot
	defer func() { <-s.slots }()
	_, err := s.Query(context.Background(), Request{Database: "tri"})
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, ErrQueueTimeout) {
		t.Errorf("err = %v, want queue timeout wrapping overloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestQueueCancellationCountedOnce: a query whose context is canceled while
// it waits for a slot is one aborted query, in Stats and in
// joind_queries_total alike, not a rejection.
func TestQueueCancellationCountedOnce(t *testing.T) {
	s := New(Config{Workers: 1, QueueTimeout: 5 * time.Second})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	s.slots <- struct{}{} // occupy the only worker slot
	defer func() { <-s.slots }()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Query(ctx, Request{Database: "tri"}); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	st := s.Stats()
	if st.Aborted != 1 || st.Rejected != 0 || st.Queries != 1 || st.Succeeded+st.Failed != 0 {
		t.Errorf("queries %d: succeeded %d, rejected %d, aborted %d, failed %d; want one aborted query",
			st.Queries, st.Succeeded, st.Rejected, st.Aborted, st.Failed)
	}
	var text strings.Builder
	s.Metrics().WriteText(&text)
	if want := `joind_queries_total{strategy="auto",status="aborted"} 1`; !strings.Contains(text.String(), want) ||
		strings.Contains(text.String(), `status="rejected"`) {
		t.Errorf("metrics lack %s or count a rejection:\n%s", want, text.String())
	}
}

func TestQueueDepthRejectsImmediately(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, QueueTimeout: time.Second})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	s.slots <- struct{}{} // occupy the worker
	defer func() { <-s.slots }()
	s.queued.Add(1) // simulate a waiter already filling the queue
	defer s.queued.Add(-1)
	start := time.Now()
	_, err := s.Query(context.Background(), Request{Database: "tri"})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("err = %v, want overloaded", err)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Errorf("queue-full rejection waited %s; should be immediate", waited)
	}
}

func TestGlobalBudgetCarving(t *testing.T) {
	s := New(Config{Workers: 2, GlobalMaxTuples: 10_000})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	// Fair share is 10000/2 = 5000 — plenty for the triangle join.
	rep, err := s.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Produced == 0 {
		t.Error("governed query reported zero produced tuples")
	}
	if rem := s.Stats().GlobalTuplesRemaining; rem != 10_000 {
		t.Errorf("budget not returned: remaining %d", rem)
	}
	// Drain the budget; the next query must be rejected, not crash.
	s.budgetRemaining.Store(10)
	if _, err := s.Query(context.Background(), Request{Database: "tri"}); !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, ErrOverloaded) {
		t.Errorf("err = %v, want budget-exhausted overload", err)
	}
}

func TestPerQueryBudgetAbort(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	// An explicit strategy with an absurd budget aborts hard with the
	// governor's typed error (no ladder for explicit strategies).
	_, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "cpf-expression", MaxTuples: 1})
	if !errors.Is(err, govern.ErrTupleBudget) {
		t.Errorf("err = %v, want tuple budget", err)
	}
	if st := s.Stats(); st.Aborted != 1 {
		t.Errorf("aborted = %d, want 1", st.Aborted)
	}
}

func TestContextCancellationPropagates(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query(ctx, Request{Database: "tri"}); !errors.Is(err, govern.ErrCanceled) {
		t.Errorf("err = %v, want canceled", err)
	}
}

// TestQueryTimeoutIsDeadline: a query's timeout is its context's deadline,
// so an expired one aborts as govern.ErrDeadline and as the context's
// context.DeadlineExceeded, never as a cancellation. Over HTTP a timeout —
// here the service default, since timeout_ms counts whole milliseconds —
// is a 504, while a request whose client went away stays a 499.
func TestQueryTimeoutIsDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Query(context.Background(), Request{Database: "tri", Timeout: time.Nanosecond})
	if !errors.Is(err, govern.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want ErrDeadline and context.DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Aborted != 1 {
		t.Errorf("aborted = %d, want 1", st.Aborted)
	}

	s = New(Config{Workers: 1, DefaultTimeout: time.Nanosecond})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	serve := func(ctx context.Context) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"database":"tri"}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var out struct{ Kind string }
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%d %s: %v", rec.Code, rec.Body, err)
		}
		return rec.Code, out.Kind
	}
	if code, kind := serve(context.Background()); code != http.StatusGatewayTimeout || kind != "deadline" {
		t.Errorf("timed-out query = %d %q, want 504 deadline", code, kind)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if code, kind := serve(ctx); code != StatusClientClosedRequest || kind != "canceled" {
		t.Errorf("client-canceled query = %d %q, want 499 canceled", code, kind)
	}
}

// TestConcurrentQueriesUnderRace is the second acceptance criterion: ≥ 32
// concurrent queries through the HTTP handler with a global tuple budget
// and a small pool; every response must be 200 or 429 (overload is
// rejected, never a crash), with at least one of each. To make overload
// deterministic rather than timing-dependent, the test holds every worker
// slot until admission control has demonstrably rejected queries, then
// releases the pool so the queued queries complete.
func TestConcurrentQueriesUnderRace(t *testing.T) {
	s := New(Config{
		Workers:         2,
		QueueDepth:      4,
		QueueTimeout:    5 * time.Second,
		GlobalMaxTuples: 100_000,
	})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Stall the pool: with both slots held, arrivals queue (up to
	// QueueDepth) or are rejected immediately.
	for i := 0; i < s.cfg.Workers; i++ {
		s.slots <- struct{}{}
	}

	const queries = 40
	var ok200, ok429, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := bytes.NewReader([]byte(`{"database":"tri"}`))
			resp, err := http.Post(srv.URL+"/v1/query", "application/json", body)
			if err != nil {
				other.Add(1)
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				ok429.Add(1)
			default:
				other.Add(1)
				var e errorResponse
				_ = json.NewDecoder(resp.Body).Decode(&e)
				t.Errorf("unexpected status %d: %+v", resp.StatusCode, e)
			}
		}()
	}

	// Wait until overload has actually been rejected, then unstall the pool
	// so queued queries (they wait up to QueueTimeout) run to completion.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no query was rejected while the pool was stalled")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		<-s.slots
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 429", other.Load())
	}
	if ok200.Load() == 0 {
		t.Fatal("no query succeeded")
	}
	if ok429.Load() == 0 {
		t.Fatal("overload was never rejected with 429")
	}
	t.Logf("200s: %d, 429s: %d", ok200.Load(), ok429.Load())
	st := s.Stats()
	if st.Queries+st.Rejected < queries {
		t.Errorf("stats account for %d queries, want ≥ %d", st.Queries+st.Rejected, queries)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("leaked slots: in_flight %d, queued %d", st.InFlight, st.Queued)
	}
	if st.GlobalTuplesRemaining != 100_000 {
		t.Errorf("leaked budget: remaining %d", st.GlobalTuplesRemaining)
	}
}

func TestHTTPRegisterQueryStatsSession(t *testing.T) {
	s := New(Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// healthz
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Register the worked triangle example from docs/SERVICE.md.
	reg := `{"name":"triangle","relations":[
		{"attrs":["A","B"],"tuples":[[1,2],[2,3],[3,1]]},
		{"attrs":["B","C"],"tuples":[[1,2],[2,3],[3,1]]},
		{"attrs":["C","A"],"tuples":[[1,2],[2,3],[3,1]]}]}`
	resp, err = http.Post(srv.URL+"/v1/databases", "application/json", bytes.NewReader([]byte(reg)))
	if err != nil {
		t.Fatal(err)
	}
	var info DatabaseInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.Name != "triangle" || info.Tuples != 9 {
		t.Fatalf("register: %d %+v", resp.StatusCode, info)
	}

	// Query twice; the second must be a cache hit and the result nonempty.
	query := func() queryResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/query", "application/json",
			bytes.NewReader([]byte(`{"database":"triangle","include_result":true}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	q1, q2 := query(), query()
	if q1.ResultCount != 3 || q1.Result == nil || q1.Result.Len() != 3 {
		t.Errorf("first query = %+v, want the 3 directed triangles", q1)
	}
	if q1.CacheHit || !q2.CacheHit {
		t.Errorf("cache hits: first %v, second %v; want false, true", q1.CacheHit, q2.CacheHit)
	}

	// Stats reflect the session.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Queries != 2 || st.PlanCache.Hits != 1 {
		t.Errorf("stats = %+v, want 2 queries, 1 plan-cache hit", st)
	}

	// Error mappings.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"database":"missing"}`, http.StatusNotFound},
		{`{"database":"triangle","strategy":"bogus"}`, http.StatusBadRequest},
		{`{"database":"triangle","strategy":"cpf-expression","max_tuples":1}`, http.StatusUnprocessableEntity},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q → %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// Duplicate registration → 409.
	resp, err = http.Post(srv.URL+"/v1/databases", "application/json", bytes.NewReader([]byte(reg)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register → %d, want 409", resp.StatusCode)
	}
}

func TestResultTruncation(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"database":"tri","include_result":true,"max_result_tuples":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Result != nil && qr.Result.Len() > 2 {
		t.Errorf("result echoed %d tuples, want ≤ 2", qr.Result.Len())
	}
	if qr.ResultCount > 2 && !qr.ResultTruncated {
		t.Error("truncation not flagged")
	}
}

func TestStrategyVariantsServeCorrectResults(t *testing.T) {
	s := New(Config{Workers: 2})
	db := triangleDB(t)
	if _, err := s.Register("tri", db); err != nil {
		t.Fatal(err)
	}
	want := db.Join()
	for _, strat := range []string{"", "auto", "program", "cpf-expression", "reduce-then-join", "wcoj"} {
		rep, err := s.Query(context.Background(), Request{Database: "tri", Strategy: strat})
		if err != nil {
			t.Fatalf("strategy %q: %v", strat, err)
		}
		if !rep.Result.Equal(want) {
			t.Errorf("strategy %q: result != ⋈D", strat)
		}
	}
	// Distinct strategies occupy distinct cache keys.
	if st := s.Stats(); st.PlanCache.Len < 4 {
		t.Errorf("plan cache has %d entries, want ≥ 4 distinct strategies", st.PlanCache.Len)
	}
}

// TestWCOJStrategyOverService: the worst-case-optimal route is selectable
// through the serving layer, its plan (the derived variable order) is
// cached and shared, and concurrent queries over the one cached plan are
// race-clean — each execution carries its own governor and iterators.
func TestWCOJStrategyOverService(t *testing.T) {
	s := New(Config{Workers: 4})
	db := triangleDB(t)
	if _, err := s.Register("tri", db); err != nil {
		t.Fatal(err)
	}
	want := db.Join()
	rep, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "wcoj"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy.String() != "wcoj" {
		t.Errorf("ran %s, want wcoj", rep.Strategy)
	}
	if !rep.Result.Equal(want) {
		t.Error("wcoj result != ⋈D")
	}
	if rep.PlanCacheHit {
		t.Error("first wcoj query reported a cache hit")
	}

	const queries = 12
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := s.Query(context.Background(), Request{
				Database: "tri", Strategy: "wcoj", Workers: 1 + i%3,
			})
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if !rep.Result.Equal(want) {
				t.Errorf("query %d: wrong result", i)
			}
			if rep.PlanCacheHit {
				hits.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if hits.Load() != queries {
		t.Errorf("%d/%d concurrent wcoj queries hit the cached plan", hits.Load(), queries)
	}
}

// TestBadStrategyEnumeratesNames: a rejected strategy must tell the caller
// what it could have said — including the wcoj route.
func TestBadStrategyEnumeratesNames(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "bogus"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	for _, name := range []string{"auto", "program", "cpf-expression", "reduce-then-join", "acyclic", "wcoj"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

// TestSearchAbortServedAsResourceLimit: on Example3(q=40) the optimizer's
// search crosses its tuple budget while planning. An explicit program query
// is a 422 resource_limit counted aborted; auto falls through its three
// search-bound rungs to wcoj. Both stay within a bounded allocation, since
// the search aborts before it builds the sub-join that crosses the budget.
func TestSearchAbortServedAsResourceLimit(t *testing.T) {
	spec, err := workload.Example3(40)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	if _, err := s.Register("ex3", db); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, out := postJSON(t, srv, "/v1/query", `{"database":"ex3","strategy":"program"}`)
	if code != http.StatusUnprocessableEntity || out["kind"] != "resource_limit" {
		t.Errorf("program = %d %v, want 422 resource_limit", code, out)
	}
	code, out = postJSON(t, srv, "/v1/query", `{"database":"ex3","strategy":"auto"}`)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK || out["strategy"] != "wcoj" {
		t.Errorf("auto = %d %v, want 200 on wcoj", code, out)
	}
	degraded := 0
	notes, _ := out["notes"].([]any)
	for _, n := range notes {
		if note, _ := n.(string); strings.HasPrefix(note, "degradation:") {
			degraded++
		}
	}
	if degraded != 3 {
		t.Errorf("auto carries %d degradation notes, want 3: %v", degraded, notes)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 128<<20 {
		t.Errorf("the two queries allocated %d MiB, want < 128", alloc>>20)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `joind_queries_total{strategy="program",status="aborted"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("metrics lack %s:\n%s", want, body)
	}
}

// TestSearchAbortRememberedPerSnapshot: a rung whose plan search aborted on
// a catalog snapshot is not searched again on that snapshot, by auto or by
// an explicit strategy; an ingest makes a new snapshot, which searches
// again. Example3(q=40) is the instance whose program, cpf-expression and
// reduce-then-join searches all cross the catalog's tuple budget.
func TestSearchAbortRememberedPerSnapshot(t *testing.T) {
	spec, err := workload.Example3(40)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(16)
	s := newStoreService(t, t.TempDir(), Config{Workers: 4, Tracer: col})
	if _, err := s.Register("ex3", db); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// query runs one auto query, which must land on wcoj after three
	// degradations; it may run on any goroutine.
	query := func() {
		rep, err := s.Query(context.Background(), Request{Database: "ex3"})
		if err != nil {
			t.Error(err)
			return
		}
		degraded := 0
		for _, n := range rep.Notes {
			if strings.HasPrefix(n, "degradation:") {
				degraded++
			}
		}
		if rep.Strategy.String() != "wcoj" || degraded != 3 {
			t.Errorf("auto ran %s with %d degradation notes, want wcoj with 3: %v", rep.Strategy, degraded, rep.Notes)
		}
	}
	wantMisses := func(want int64) {
		t.Helper()
		if misses := s.Stats().PlanCache.Misses; misses != want {
			t.Errorf("plan-cache misses = %d, want %d", misses, want)
		}
	}
	for i := 0; i < 4; i++ {
		query()
		wantMisses(4) // the first query searches every rung; repeats search none
	}
	traces := col.Traces()
	skipped := 0
	for _, sp := range traces[len(traces)-1].Root.Children() {
		for _, n := range sp.Notes() {
			if sp.Kind() == obs.KindPlanCache && strings.HasPrefix(n, "skipped:") {
				skipped++
			}
		}
	}
	if skipped != 3 {
		t.Errorf("a repeated auto query's trace notes %d skipped searches, want 3\n%s", skipped, traces[len(traces)-1].Format())
	}
	code, out := postJSON(t, srv, "/v1/query", `{"database":"ex3","strategy":"program"}`)
	if code != http.StatusUnprocessableEntity || out["kind"] != "resource_limit" {
		t.Errorf("program = %d %v, want 422 resource_limit", code, out)
	}
	wantMisses(4) // the explicit strategy skips the search too

	// A dangling tuple: its link values are outside the instance's domain.
	batch := store.Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(7, 1_000_000, 7)}}}
	if _, err := s.Ingest(context.Background(), "ex3", batch); err != nil {
		t.Fatal(err)
	}
	// A new snapshot searches again: three searches, and wcoj's plan was
	// invalidated. Racing queries may each search a rung before one of them
	// records its abort, but once they are done no query searches again.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			query()
		}()
	}
	wg.Wait()
	misses := s.Stats().PlanCache.Misses
	if misses < 8 {
		t.Errorf("after an ingest: %d plan-cache misses, want at least 8", misses)
	}
	query()
	wantMisses(misses)
}
