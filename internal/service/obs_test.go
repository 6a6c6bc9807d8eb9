package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Tests for the observability surface: span trees under concurrency, the
// slow-query log, and the Prometheus endpoint. Run with -race: the span
// trees are built concurrently by the worker pool and (with QueryWorkers
// > 1) by intra-query goroutines sharing one parent span.

// TestConcurrentTracedQueriesUnderRace drives many parallel queries through
// one shared Service with a Collector tracer and checks every captured
// trace is a disjoint, well-nested span tree of its own.
func TestConcurrentTracedQueriesUnderRace(t *testing.T) {
	const queries = 24
	col := obs.NewCollector(queries)
	s := New(Config{
		Workers:      4,
		QueueDepth:   queries,
		QueueTimeout: 10 * time.Second,
		QueryWorkers: 2,
		Tracer:       col,
	})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	reports := make([]string, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			strategy := []string{"program", "wcoj", "cpf-expression", ""}[i%4]
			rep, err := s.Query(context.Background(), Request{
				Database: "tri",
				Strategy: strategy,
				Workers:  2,
			})
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if rep.TraceID == "" {
				t.Errorf("query %d: no trace ID on report", i)
				return
			}
			reports[i] = rep.TraceID
		}(i)
	}
	wg.Wait()

	traces := col.Traces()
	if len(traces) != queries {
		t.Fatalf("collector holds %d traces, want %d", len(traces), queries)
	}
	seen := make(map[string]bool, queries)
	for _, tr := range traces {
		if seen[tr.ID] {
			t.Errorf("duplicate trace ID %s", tr.ID)
		}
		seen[tr.ID] = true
		if tr.Root.Kind() != obs.KindQuery {
			t.Errorf("trace %s: root kind %s, want %s", tr.ID, tr.Root.Kind(), obs.KindQuery)
		}
		if err := tr.Root.CheckNested(); err != nil {
			t.Errorf("trace %s: %v", tr.ID, err)
		}
		if tr.Root.TupleTotal() <= 0 {
			t.Errorf("trace %s: no tuples charged to any span", tr.ID)
		}
	}
	// Every report's trace ID must be one of the collected traces.
	for i, id := range reports {
		if id != "" && !seen[id] {
			t.Errorf("query %d: report trace %s not in the collector", i, id)
		}
	}
}

// planSpans returns the query's plan-cache span and its plan-kind children.
func planSpans(t *testing.T, tr *obs.Trace) (pc *obs.Span, plans []*obs.Span) {
	t.Helper()
	for _, c := range tr.Root.Children() {
		if c.Kind() == obs.KindPlanCache {
			pc = c
		}
	}
	if pc == nil {
		t.Fatalf("trace %s has no plan-cache span", tr.ID)
	}
	for _, c := range pc.Children() {
		if c.Kind() == obs.KindPlan {
			plans = append(plans, c)
		}
	}
	return pc, plans
}

// TestPlanSpanOnlyOnComputingRequest pins where planning time is
// attributed: the request that misses the plan cache and derives the plan
// carries one ended plan span under its plan-cache span; a hit, and a
// request that coalesced onto another's in-flight derivation, carry none.
func TestPlanSpanOnlyOnComputingRequest(t *testing.T) {
	col := obs.NewCollector(8)
	s := New(Config{Workers: 2, Tracer: col})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	query := func(strategy string) {
		t.Helper()
		if _, err := s.Query(context.Background(), Request{Database: "tri", Strategy: strategy}); err != nil {
			t.Fatal(err)
		}
	}
	lastTrace := func(want int) *obs.Trace {
		t.Helper()
		traces := col.Traces()
		if len(traces) != want {
			t.Fatalf("collector holds %d traces, want %d", len(traces), want)
		}
		return traces[want-1]
	}

	query("program") // miss: this request derives the plan
	pc, plans := planSpans(t, lastTrace(1))
	if len(plans) != 1 || !plans[0].Ended() || plans[0].Wall() <= 0 || plans[0].Wall() > pc.Wall() {
		t.Fatalf("miss: %d plan spans under a %s plan-cache span, want one ended span inside it", len(plans), pc.Wall())
	}

	query("program") // hit
	if _, plans := planSpans(t, lastTrace(2)); len(plans) != 0 {
		t.Fatalf("hit: %d plan spans, want none", len(plans))
	}

	// Coalesced: hold a flight open on the wcoj plan's key, let a query
	// block on it, then land the plan.
	e, err := s.lookup("tri")
	if err != nil {
		t.Fatal(err)
	}
	key := planKey(e.fingerprint, engine.StrategyWCOJ)
	release, landed := make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, err := s.cache.GetOrCompute(key, func() (*engine.Plan, error) {
			<-release
			return engine.PlanFor(e.db.Load(), engine.Options{Strategy: engine.StrategyWCOJ})
		})
		landed <- err
	}()
	waiter := make(chan struct{})
	go func() {
		defer close(waiter)
		// Retry until the flight above is in the cache's in-flight table;
		// a query arriving earlier would compute the plan itself.
		for s.cache.Stats().Misses < 2 {
			time.Sleep(time.Millisecond)
		}
		if _, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "wcoj"}); err != nil {
			t.Error(err)
		}
	}()
	for s.cache.Stats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-landed; err != nil {
		t.Fatal(err)
	}
	<-waiter
	if _, plans := planSpans(t, lastTrace(3)); len(plans) != 0 {
		t.Fatalf("coalesced waiter: %d plan spans, want none", len(plans))
	}
}

// TestSlowLogCapturesQueriesWithTraces runs with a capture-everything
// threshold and checks GET /v1/slow serves entries whose embedded span
// trees drill down to statement level.
func TestSlowLogCapturesQueriesWithTraces(t *testing.T) {
	s := New(Config{
		Workers:            2,
		SlowQueryThreshold: time.Nanosecond,
		SlowLogSize:        8,
	})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "program"})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TraceID == "" {
			t.Fatal("slow-log-only configuration still must assign trace IDs")
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sl slowResponse
	if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	if !sl.Enabled || sl.Recorded != 3 || len(sl.Entries) != 3 {
		t.Fatalf("slow log: enabled=%v recorded=%d entries=%d, want enabled with 3 of each",
			sl.Enabled, sl.Recorded, len(sl.Entries))
	}
	for _, e := range sl.Entries {
		if e.TraceID == "" || e.Status != "ok" || e.Trace == nil {
			t.Fatalf("slow entry missing fields: %+v", e)
		}
		var stmts int
		var walk func(sp *obs.SpanJSON)
		walk = func(sp *obs.SpanJSON) {
			if sp.Kind == obs.KindStmt {
				stmts++
			}
			for _, c := range sp.Children {
				walk(c)
			}
		}
		walk(e.Trace)
		if stmts == 0 {
			t.Errorf("entry %s: span tree has no statement spans", e.TraceID)
		}
	}
}

// TestMetricsEndpointServesValidText scrapes /metrics after a mixed
// workload and checks the exposition parses line by line and the required
// series moved.
func TestMetricsEndpointServesValidText(t *testing.T) {
	s := New(Config{Workers: 2, SlowQueryThreshold: time.Nanosecond})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Query(context.Background(), Request{Database: "tri"}); err != nil {
			t.Fatal(err)
		}
	}
	// One failed admission: unknown strategies are rejected before tracing.
	if _, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "bogus"}); err == nil {
		t.Fatal("bogus strategy did not error")
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, series := range []string{
		"joind_queries_total",
		"joind_tuples_produced_total",
		"joind_query_duration_seconds_bucket",
		"joind_queue_wait_seconds_bucket",
		"joind_slow_queries_total",
		"joind_in_flight_queries",
		"joind_queued_queries",
		"joind_worker_utilization",
		"joind_registered_databases",
		"joind_plan_cache_hits_total",
		"joind_plan_cache_misses_total",
		"joind_plan_cache_hit_ratio",
		"joind_tuple_budget_remaining",
		"joind_ladder_degradations_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing series %s", series)
		}
	}
	if !strings.Contains(text, `joind_queries_total{strategy="program",status="ok"} 4`) {
		t.Errorf("queries counter did not reach 4 ok:\n%s", text)
	}
	if !strings.Contains(text, "joind_slow_queries_total 4") {
		t.Errorf("slow counter did not reach 4:\n%s", text)
	}
	if !strings.Contains(text, "joind_registered_databases 1") {
		t.Errorf("registered databases gauge not 1:\n%s", text)
	}

	// Every non-comment line must be "name{labels} value" — two fields.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestColumnarQueryMetrics pins the retired strategy names end to end:
// a query asking for "columnar", "hybrid" or "direct" is a 400 whose body
// lists the valid names, and /metrics carries neither of the first two as a
// strategy label nor the series only they fed, nor the retired view-budget
// counter.
func TestColumnarQueryMetrics(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, retired := range []string{"columnar", "hybrid", "direct"} {
		resp, err := http.Post(srv.URL+"/v1/query", "application/json",
			strings.NewReader(`{"database":"tri","strategy":"`+retired+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s query: status %d, want 400: %s", retired, resp.StatusCode, body)
		}
		for _, name := range engine.StrategyNames() {
			if !strings.Contains(string(body), name) {
				t.Errorf("400 body does not list strategy %q: %s", name, body)
			}
		}
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
	// "hybrid" also covers the per-route counter; "qerror" and "sketch" the
	// estimate-vs-actual histogram and the two sketch maintenance counters.
	text := string(body)
	for _, retired := range []string{`strategy="columnar"`, "joind_columnar_tuples_total", "hybrid", "qerror", "sketch", "budget_aborts"} {
		if strings.Contains(text, retired) {
			t.Errorf("retired %s still exported:\n%s", retired, text)
		}
	}
}

// TestUntracedServiceAssignsNoTraceIDs checks the default configuration
// (no tracer, no slow log) builds no spans at all.
func TestUntracedServiceAssignsNoTraceIDs(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != "" {
		t.Fatalf("untraced query carries trace ID %q", rep.TraceID)
	}
	if s.slowLog != nil {
		t.Fatal("slow log exists with a zero threshold")
	}
}
