package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/store"
)

// triEdges returns the three directed edges of triangle i over fresh nodes,
// for R(A,B), S(B,C), T(C,A): joining R ⋈ S ⋈ T yields one row per triangle.
func triEdges(i int64) (r, s, t relation.Tuple) {
	a, b, c := 10*i, 10*i+1, 10*i+2
	return relation.Ints(a, b), relation.Ints(b, c), relation.Ints(c, a)
}

// triDB builds {R(A,B), S(B,C), T(C,A)} seeded with triangle 0.
func triDB(t *testing.T) *relation.Database {
	t.Helper()
	r := relation.New(relation.MustSchema("A", "B"))
	s := relation.New(relation.MustSchema("B", "C"))
	tt := relation.New(relation.MustSchema("C", "A"))
	e0, e1, e2 := triEdges(0)
	r.MustInsert(e0)
	s.MustInsert(e1)
	tt.MustInsert(e2)
	return relation.MustDatabase(r, s, tt)
}

// triBatch inserts triangle next and (when prev >= 0) deletes triangle prev,
// as one atomic batch.
func triBatch(next, prev int64) store.Batch {
	r, s, t := triEdges(next)
	b := store.Batch{
		{Relation: 0, Inserts: []relation.Tuple{r}},
		{Relation: 1, Inserts: []relation.Tuple{s}},
		{Relation: 2, Inserts: []relation.Tuple{t}},
	}
	if prev >= 0 {
		r, s, t := triEdges(prev)
		b[0].Deletes = []relation.Tuple{r}
		b[1].Deletes = []relation.Tuple{s}
		b[2].Deletes = []relation.Tuple{t}
	}
	return b
}

// newStoreService builds a service with a durable store in dir.
func newStoreService(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIngestRoundTripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 2})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	// Warm the plan cache, then mutate: the cached plan must be dropped.
	if _, err := s.Query(context.Background(), Request{Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest(context.Background(), "tri", triBatch(1, -1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 3 || res.Deleted != 0 || res.Tuples != 6 {
		t.Fatalf("ingest result = %+v, want +3/-0, 6 tuples", res)
	}
	if res.PlansInvalidated < 1 {
		t.Fatalf("PlansInvalidated = %d, want >= 1", res.PlansInvalidated)
	}
	// Invalidation matches on the fingerprint prefix, and the strategy
	// keeps two plans over one scheme apart.
	fp := "fp-test"
	expr, wcoj := planKey(fp, engine.StrategyExpression), planKey(fp, engine.StrategyWCOJ)
	if !strings.HasPrefix(expr, fp+"#") || !strings.HasPrefix(wcoj, fp+"#") {
		t.Fatalf("keys %q, %q lost the fingerprint prefix ingest invalidation matches on", expr, wcoj)
	}
	if expr == wcoj {
		t.Fatal("strategy no longer distinguishes keys")
	}
	rep, err := s.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Len() != 2 {
		t.Fatalf("triangles after ingest = %d, want 2", rep.Result.Len())
	}
	if rep.PlanCacheHit {
		t.Fatal("query after ingest hit a stale cached plan")
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh service over the same data directory recovers the
	// registered catalog with the ingested batch folded in.
	s2 := newStoreService(t, dir, Config{Workers: 2})
	defer s2.Close(context.Background())
	dbs := s2.Databases()
	if len(dbs) != 1 || dbs[0].Name != "tri" || dbs[0].Tuples != 6 {
		t.Fatalf("recovered catalog = %+v, want tri with 6 tuples", dbs)
	}
	rep, err = s2.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Len() != 2 {
		t.Fatalf("triangles after recovery = %d, want 2", rep.Result.Len())
	}
}

func TestIngestWithoutStoreIsReadOnly(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), "tri", triBatch(1, -1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("got %v, want ErrReadOnly", err)
	}
}

func TestIngestErrors(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	defer s.Close(context.Background())
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), "nope", triBatch(1, -1)); !errors.Is(err, ErrUnknownDatabase) {
		t.Fatalf("unknown db: %v", err)
	}
	bad := store.Batch{{Relation: 9, Inserts: []relation.Tuple{relation.Ints(1, 2)}}}
	if _, err := s.Ingest(context.Background(), "tri", bad); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad relation index: %v", err)
	}
	if _, err := s.Ingest(context.Background(), "tri", nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestRegisterPersistsThroughStore(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	defer s.Close(context.Background())
	// Store name rules apply when a store is attached.
	if _, err := s.Register("bad name!", triDB(t)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad store name: %v", err)
	}
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("tri", triDB(t)); !errors.Is(err, ErrDuplicateDatabase) {
		t.Fatalf("duplicate: %v", err)
	}
	if got := s.Store().Names(); len(got) != 1 || got[0] != "tri" {
		t.Fatalf("store names = %v", got)
	}
}

// TestConcurrentQueriesDuringIngest is the snapshot-consistency criterion:
// each ingest batch atomically replaces triangle k with triangle k+1, so
// every concurrent query must see exactly one triangle — a torn view (the
// insert without the delete, or vice versa) would show zero or two. Run
// with -race to also catch any in-place mutation of shared relations.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 4})
	defer s.Close(context.Background())
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	const batches = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < batches; i++ {
			if _, err := s.Ingest(context.Background(), "tri", triBatch(i+1, i)); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := s.Query(context.Background(), Request{Database: "tri"})
				if err != nil {
					t.Error(err)
					return
				}
				if n := rep.Result.Len(); n != 1 {
					t.Errorf("query saw %d triangles, want exactly 1 (torn ingest view)", n)
					return
				}
			}
		}()
	}
	// Writer finishes, then readers stop.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		// Close readers once the writer goroutine's work is visible: poll
		// the ingest counter.
		for s.ingests.Load() < batches {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	<-done
	rep, err := s.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Len() != 1 {
		t.Fatalf("final triangles = %d, want 1", rep.Result.Len())
	}
}

func TestReadinessGate(t *testing.T) {
	s := New(Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, strings.TrimSpace(b.String())
	}
	if code, body := get("/healthz"); code != http.StatusOK || body != "ok" {
		t.Fatalf("ready /healthz = %d %q", code, body)
	}
	s.SetReady(false)
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body := get(path); code != http.StatusServiceUnavailable || body != "recovering" {
			t.Errorf("not-ready %s = %d %q, want 503 recovering", path, code, body)
		}
	}
	if code, body := get("/livez"); code != http.StatusOK || body != "ok" {
		t.Errorf("not-ready /livez = %d %q, want 200 ok (liveness is unconditional)", code, body)
	}
	s.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("re-ready /readyz = %d", code)
	}
}

// TestCloseDrainsQueriesBeforeStoreClose pins the shutdown ordering: Close
// must wait for in-flight queries to finish before it closes the store.
func TestCloseDrainsQueriesBeforeStoreClose(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker slot, standing in for a long query.
	_, release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()
	// While the "query" is in flight, Close must not have touched the
	// store: it still answers.
	time.Sleep(20 * time.Millisecond)
	if s.Ready() {
		t.Error("service still ready during shutdown")
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a query was in flight", err)
	default:
	}
	if _, err := s.Store().Current("tri"); err != nil {
		t.Fatalf("store closed before in-flight query finished: %v", err)
	}
	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last query drained")
	}
	if _, err := s.Store().Current("tri"); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("store not closed after drain: %v", err)
	}
}

func TestCloseDrainTimeout(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	_, release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with stuck query = %v, want deadline error", err)
	}
}

func TestHTTPIngestSession(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 2})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, body string) (int, map[string]any) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, out
	}

	code, _ := post("/v1/databases", `{"name":"tri","relations":[
		{"attrs":["A","B"],"tuples":[[0,1]]},
		{"attrs":["B","C"],"tuples":[[1,2]]},
		{"attrs":["C","A"],"tuples":[[2,0]]}]}`)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}

	code, out := post("/v1/ingest", `{"database":"tri","mutations":[
		{"relation":0,"inserts":[[10,11]]},
		{"relation":1,"inserts":[[11,12]]},
		{"relation":2,"inserts":[[12,10]]}]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %v", code, out)
	}
	if out["inserted"].(float64) != 3 || out["tuples"].(float64) != 6 {
		t.Fatalf("ingest response = %v", out)
	}

	code, out = post("/v1/query", `{"database":"tri","include_result":true}`)
	if code != http.StatusOK {
		t.Fatalf("query = %d: %v", code, out)
	}
	if out["result_count"].(float64) != 2 {
		t.Fatalf("result_count = %v, want 2 triangles", out["result_count"])
	}

	// Deletes apply before inserts; effective counts reflect presence change.
	code, out = post("/v1/ingest", `{"database":"tri","mutations":[
		{"relation":0,"deletes":[[10,11]]}]}`)
	if code != http.StatusOK || out["deleted"].(float64) != 1 {
		t.Fatalf("delete ingest = %d %v", code, out)
	}

	if code, out = post("/v1/ingest", `{"database":"nope","mutations":[{"relation":0,"inserts":[[1,2]]}]}`); code != http.StatusNotFound {
		t.Fatalf("unknown db ingest = %d %v", code, out)
	}
	if code, out = post("/v1/ingest", `{"database":"tri","mutations":[{"relation":7,"inserts":[[1,2]]}]}`); code != http.StatusBadRequest {
		t.Fatalf("bad relation ingest = %d %v", code, out)
	}

	// The stats endpoint exposes store counters.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Store == nil || stats.Store.WALAppends != 2 || stats.Ingests != 2 {
		t.Fatalf("stats store = %+v, ingests = %d", stats.Store, stats.Ingests)
	}
}

func TestHTTPIngestReadOnly(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"database":"tri","mutations":[{"relation":0,"inserts":[[5,6]]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only ingest = %d, want 403", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "read_only" {
		t.Fatalf("kind = %q, want read_only", e.Kind)
	}
}

func TestIngestMetricsExposition(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	defer s.Close(context.Background())
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), "tri", triBatch(1, -1)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	s.Metrics().WriteText(&b)
	text := b.String()
	for _, series := range []string{
		`joind_ingests_total{status="ok"} 1`,
		"joind_wal_appends_total 1",
		"joind_wal_bytes_total",
		"joind_snapshot_writes_total",
		"joind_snapshot_checkpoints_total",
		"joind_recovery_replayed_records 0",
		"joind_ingest_duration_seconds_count 1",
		"joind_plan_cache_invalidations_total",
		"joind_store_attached 1",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}
