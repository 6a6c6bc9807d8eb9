package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine/failpoint"
	"repro/internal/ivm"
	"repro/internal/relation"
	"repro/internal/store"
)

// sortedTuples renders a relation deterministically for comparison.
func sortedTuples(r *relation.Relation) string {
	return fmt.Sprint(r.SortedRows())
}

func TestViewMaintainedAcrossIngest(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 2})
	defer s.Close(context.Background())
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	info, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResultCount != 1 {
		t.Fatalf("initial view holds %d tuples, want 1 (the seed triangle)", info.ResultCount)
	}
	if info.Rebuilds != 1 {
		t.Fatalf("registration rebuilds = %d, want 1", info.Rebuilds)
	}
	// Grow and shrink through several batches; after each, the view must
	// equal a from-scratch join of the current catalog.
	for i := int64(1); i <= 5; i++ {
		res, err := s.Ingest(context.Background(), "tri", triBatch(i, i-2))
		if err != nil {
			t.Fatal(err)
		}
		if res.ViewsMaintained != 1 {
			t.Fatalf("batch %d maintained %d views, want 1", i, res.ViewsMaintained)
		}
		rep, err := s.Query(context.Background(), Request{Database: "tri"})
		if err != nil {
			t.Fatal(err)
		}
		vinfo, result, err := s.ViewResult("tv")
		if err != nil {
			t.Fatal(err)
		}
		if !result.Equal(rep.Result) {
			t.Fatalf("batch %d: view diverged from recompute:\nview:      %s\nrecompute: %s",
				i, sortedTuples(result), sortedTuples(rep.Result))
		}
		if vinfo.DeltaBatches != i {
			t.Fatalf("batch %d: DeltaBatches = %d", i, vinfo.DeltaBatches)
		}
		if vinfo.Rebuilds != 1 {
			t.Fatalf("batch %d: view rebuilt (%d) instead of delta-maintained", i, vinfo.Rebuilds)
		}
	}
	st := s.Stats()
	if st.Views != 1 || st.ViewDeltaBatches != 5 {
		t.Fatalf("stats = views %d, delta batches %d; want 1, 5", st.Views, st.ViewDeltaBatches)
	}
}

// TestViewDifferentialRandomOverService drives randomized insert/delete
// batches through the full service ingest path and checks the maintained
// view against a from-scratch query after every batch.
func TestViewDifferentialRandomOverService(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 2})
	defer s.Close(context.Background())
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	edge := func() relation.Tuple {
		return relation.Ints(int64(rng.Intn(6)), int64(rng.Intn(6)))
	}
	for batch := 0; batch < 30; batch++ {
		var b store.Batch
		for ri := 0; ri < 3; ri++ {
			m := store.Mutation{Relation: ri}
			for k := rng.Intn(3); k > 0; k-- {
				m.Inserts = append(m.Inserts, edge())
			}
			for k := rng.Intn(2); k > 0; k-- {
				m.Deletes = append(m.Deletes, edge())
			}
			if len(m.Inserts)+len(m.Deletes) > 0 {
				b = append(b, m)
			}
		}
		if len(b) == 0 || b.Tuples() == 0 {
			continue
		}
		if _, err := s.Ingest(context.Background(), "tri", b); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		rep, err := s.Query(context.Background(), Request{Database: "tri"})
		if err != nil {
			t.Fatal(err)
		}
		_, result, err := s.ViewResult("tv")
		if err != nil {
			t.Fatal(err)
		}
		if !result.Equal(rep.Result) {
			t.Fatalf("batch %d: view diverged:\nview:      %s\nrecompute: %s",
				batch, sortedTuples(result), sortedTuples(rep.Result))
		}
	}
}

// TestHTTPViewSession is the end-to-end HTTP lifecycle, including the
// delete-batch path: ingest deletes through POST /v1/ingest and assert the
// served view result shrinks accordingly.
func TestHTTPViewSession(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 2})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(resp *http.Response, want int, v any) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != want {
			var e errorResponse
			_ = json.NewDecoder(resp.Body).Decode(&e)
			t.Fatalf("status %d, want %d (%+v)", resp.StatusCode, want, e)
		}
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
	}

	decode(post("/v1/databases", map[string]any{
		"name": "tri",
		"relations": []map[string]any{
			{"attrs": []string{"A", "B"}, "tuples": [][]int64{{0, 1}, {10, 11}}},
			{"attrs": []string{"B", "C"}, "tuples": [][]int64{{1, 2}, {11, 12}}},
			{"attrs": []string{"C", "A"}, "tuples": [][]int64{{2, 0}, {12, 10}}},
		},
	}), http.StatusCreated, nil)

	var vinfo ViewInfo
	decode(post("/v1/views", map[string]any{"id": "tv", "database": "tri"}), http.StatusCreated, &vinfo)
	if vinfo.ResultCount != 2 {
		t.Fatalf("initial view result = %d, want 2 triangles", vinfo.ResultCount)
	}
	// Duplicate id conflicts; unknown database 404s; bad id 400s.
	decode(post("/v1/views", map[string]any{"id": "tv", "database": "tri"}), http.StatusConflict, nil)
	decode(post("/v1/views", map[string]any{"id": "tv2", "database": "nope"}), http.StatusNotFound, nil)
	decode(post("/v1/views", map[string]any{"id": "bad name!", "database": "tri"}), http.StatusBadRequest, nil)
	// Views carry no budget: the retired max_tuples field is an unknown
	// field, a 400 bad_request, and registers nothing.
	var e errorResponse
	decode(post("/v1/views", map[string]any{"id": "tv3", "database": "tri", "max_tuples": 10}), http.StatusBadRequest, &e)
	if e.Kind != "bad_request" || !strings.Contains(e.Error, "max_tuples") {
		t.Fatalf("max_tuples view = %+v, want a bad_request naming the field", e)
	}
	if _, err := s.lookupView("tv3"); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("a rejected view was registered: %v", err)
	}

	// Delete one triangle's edges through the full HTTP ingest path: the
	// view's served result must shrink from 2 tuples to 1.
	var ing IngestResult
	decode(post("/v1/ingest", map[string]any{
		"database": "tri",
		"mutations": []map[string]any{
			{"relation": 0, "deletes": [][]int64{{10, 11}}},
			{"relation": 1, "deletes": [][]int64{{11, 12}}},
			{"relation": 2, "deletes": [][]int64{{12, 10}}},
		},
	}), http.StatusOK, &ing)
	if ing.Deleted != 3 || ing.ViewsMaintained != 1 {
		t.Fatalf("ingest = %+v, want 3 deletes into 1 view", ing)
	}

	resp, err := http.Get(srv.URL + "/v1/views/tv")
	if err != nil {
		t.Fatal(err)
	}
	var view viewResponse
	decode(resp, http.StatusOK, &view)
	if view.ResultCount != 1 || view.Result == nil || view.Result.Len() != 1 {
		t.Fatalf("view after delete batch = %+v (result %v), want exactly 1 tuple", view.ViewInfo, view.Result)
	}
	if view.DeltaBatches != 1 || view.TuplesIn != 3 {
		t.Fatalf("view stats = %+v, want 1 delta batch with 3 tuples in", view.ViewInfo)
	}

	// GET /v1/views lists it; DELETE drops it; a second DELETE 404s.
	resp, err = http.Get(srv.URL + "/v1/views")
	if err != nil {
		t.Fatal(err)
	}
	var list []ViewInfo
	decode(resp, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != "tv" {
		t.Fatalf("view list = %+v", list)
	}

	// Satellite check: /v1/stats surfaces the durable and coherence counters
	// at the top level.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	decode(resp, http.StatusOK, &stats)
	for _, field := range []string{"wal_records", "snapshots", "invalidations", "views", "view_delta_batches"} {
		if _, ok := stats[field]; !ok {
			t.Errorf("/v1/stats missing %q", field)
		}
	}
	if stats["wal_records"].(float64) < 1 {
		t.Errorf("wal_records = %v, want >= 1", stats["wal_records"])
	}
	if stats["views"].(float64) != 1 {
		t.Errorf("views = %v, want 1", stats["views"])
	}

	// The Prometheus exposition carries the joind_view_* series.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := raw.String()
	for _, series := range []string{
		"joind_views_registered 1",
		"joind_view_delta_batches_total 1",
		"joind_view_delta_tuples_in_total 3",
		"joind_view_full_rebuilds_total 1",
		"joind_view_maintenance_seconds_count 1",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics exposition missing %q", series)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/views/tv", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(resp, http.StatusNoContent, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(resp, http.StatusNotFound, nil)
}

func TestViewPersistsThroughRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 2})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), "tri", triBatch(1, -1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart: the definition is recovered from the store, the state rebuilt
	// from the recovered catalog, and maintenance continues.
	s2 := newStoreService(t, dir, Config{Workers: 2})
	defer s2.Close(context.Background())
	info, _, err := s2.ViewResult("tv")
	if err != nil {
		t.Fatal(err)
	}
	if info.Database != "tri" {
		t.Fatalf("recovered view = %+v", info)
	}
	if info.ResultCount != 2 {
		t.Fatalf("recovered view holds %d tuples, want 2", info.ResultCount)
	}
	if _, err := s2.Ingest(context.Background(), "tri", triBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	_, result, err := s2.ViewResult("tv")
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(rep.Result) {
		t.Fatalf("recovered view diverged:\nview:      %s\nrecompute: %s",
			sortedTuples(result), sortedTuples(rep.Result))
	}
}

// TestViewWithRetiredBudgetRecoversMaintained: a views.dat written while
// views carried tuple budgets recovers through AttachStore, and its view is
// maintained by deltas: the one-tuple budget that once forced a rebuild on
// every batch binds nothing.
func TestViewWithRetiredBudgetRecoversMaintained(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 1})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Reframe views.dat (magic, then one record: length, CRC-32C, payload)
	// around the definition as it was written with budgets.
	path := filepath.Join(dir, "views.dat")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`[{"id":"tv","database":"tri","max_tuples":1,"max_intermediate_tuples":1}]`)
	legacy := binary.BigEndian.AppendUint32(raw[:8:8], uint32(len(payload)))
	legacy = binary.BigEndian.AppendUint32(legacy, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, append(legacy, payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newStoreService(t, dir, Config{Workers: 1})
	defer s2.Close(context.Background())
	if _, err := s2.Ingest(context.Background(), "tri", triBatch(1, 0)); err != nil {
		t.Fatal(err)
	}
	info, result, err := s2.ViewResult("tv")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rebuilds != 1 || info.DeltaBatches != 1 || info.LastError != "" {
		t.Fatalf("recovered view = %+v, want 1 rebuild (recovery), 1 delta batch, no error", info)
	}
	rep, err := s2.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 1 || !result.Equal(rep.Result) {
		t.Fatalf("maintained view diverged:\nview:      %s\nrecompute: %s",
			sortedTuples(result), sortedTuples(rep.Result))
	}
}

// TestFailedMaintenanceRebuildsFromPostBatch drives the repair path
// directly: maintainView gets a change naming a relation the view does not
// have, so the delta apply fails. The view is rebuilt from the post-batch
// catalog it was handed — one rebuild beyond registration — keeps the
// failure in last_error, and serves that catalog's join.
func TestFailedMaintenanceRebuildsFromPostBatch(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	ve, err := s.lookupView("tv")
	if err != nil {
		t.Fatal(err)
	}
	// The post-batch catalog holds a second triangle the failed batch never
	// delivered: only a rebuild from it can show two result tuples.
	post := triDB(t)
	r, rs, rt := triEdges(1)
	post.Relation(0).MustInsert(r)
	post.Relation(1).MustInsert(rs)
	post.Relation(2).MustInsert(rt)
	s.maintainView(ve, []ivm.Change{{Relation: 3, Inserts: []relation.Tuple{r}}}, post)

	info, result, err := s.ViewResult("tv")
	if err != nil {
		t.Fatalf("view should have been rebuilt, not left stale: %v", err)
	}
	if info.Stale || info.Rebuilds != 2 || s.Stats().ViewRebuilds != 2 {
		t.Fatalf("stale %v, view rebuilds %d, service rebuilds %d; want fresh, 2 and 2 (registration + repair)",
			info.Stale, info.Rebuilds, s.Stats().ViewRebuilds)
	}
	if !strings.Contains(info.LastError, "out of range") {
		t.Fatalf("LastError = %q, want the apply failure", info.LastError)
	}
	if want := post.Join(); result.Len() != 2 || !result.Equal(want) {
		t.Fatalf("rebuilt view diverged:\nview:      %s\nrecompute: %s",
			sortedTuples(result), sortedTuples(want))
	}
}

// TestConcurrentIngestQueriesAndViewReads is the -race certificate for the
// view path: ingest batches, point queries, view result reads, and stats
// scrapes all run concurrently, and afterwards the view equals a
// from-scratch recompute.
func TestConcurrentIngestQueriesAndViewReads(t *testing.T) {
	dir := t.TempDir()
	s := newStoreService(t, dir, Config{Workers: 4})
	defer s.Close(context.Background())
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	const batches = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= batches; i++ {
			if _, err := s.Ingest(context.Background(), "tri", triBatch(i, i-2)); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch w {
				case 0:
					if _, err := s.Query(context.Background(), Request{Database: "tri"}); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				case 1:
					if _, _, err := s.ViewResult("tv"); err != nil && !errors.Is(err, ErrViewStale) {
						t.Errorf("view read: %v", err)
						return
					}
				default:
					_ = s.Stats()
					_ = s.Views()
				}
			}
		}(w)
	}
	// Wait for the ingester, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if s.Stats().Ingests >= batches {
			break
		}
		select {
		case <-done:
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	close(stop)
	<-done

	rep, err := s.Query(context.Background(), Request{Database: "tri"})
	if err != nil {
		t.Fatal(err)
	}
	_, result, err := s.ViewResult("tv")
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(rep.Result) {
		t.Fatalf("view diverged after concurrent run:\nview:      %s\nrecompute: %s",
			sortedTuples(result), sortedTuples(rep.Result))
	}
}

// Service-level crash harness: like the store's, but with a registered view.
// The child attaches the store (recovering the view), ingests one batch with
// a crash failpoint armed, and dies; the parent recovers in-process and
// asserts the rebuilt view exactly matches a from-scratch join of whatever
// catalog state recovery produced (pre- or post-batch — the store harness
// already pins which are legal).

const viewCrashExit = 7

func TestViewCrashChild(t *testing.T) {
	if os.Getenv("SERVICE_CRASH_CHILD") != "1" {
		t.Skip("not a crash-harness child")
	}
	if err := failpoint.EnableFromEnv("SERVICE_CRASH_FAILPOINTS"); err != nil {
		fmt.Fprintln(os.Stderr, "child: bad failpoint spec:", err)
		os.Exit(3)
	}
	dir := os.Getenv("SERVICE_CRASH_DIR")
	var step int64
	fmt.Sscanf(os.Getenv("SERVICE_CRASH_STEP"), "%d", &step)
	st, err := store.Open(dir, store.Options{CheckpointEvery: -1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: open:", err)
		os.Exit(3)
	}
	s := New(Config{Workers: 1})
	if err := s.AttachStore(st); err != nil {
		fmt.Fprintln(os.Stderr, "child: attach:", err)
		os.Exit(3)
	}
	if step == 0 {
		// Setup run: seed catalog + view, close cleanly.
		r := relation.New(relation.MustSchema("A", "B"))
		sr := relation.New(relation.MustSchema("B", "C"))
		tr := relation.New(relation.MustSchema("C", "A"))
		e0, e1, e2 := triEdges(0)
		r.MustInsert(e0)
		sr.MustInsert(e1)
		tr.MustInsert(e2)
		if _, err := s.Register("tri", relation.MustDatabase(r, sr, tr)); err != nil {
			fmt.Fprintln(os.Stderr, "child: register:", err)
			os.Exit(3)
		}
		if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
			fmt.Fprintln(os.Stderr, "child: register view:", err)
			os.Exit(3)
		}
		if err := s.Close(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "child: close:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	if _, err := s.Ingest(context.Background(), "tri", triBatch(step, step-2)); err != nil {
		fmt.Fprintln(os.Stderr, "child: ingest:", err)
		os.Exit(3)
	}
	if err := s.Close(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "child: close:", err)
		os.Exit(3)
	}
	os.Exit(0)
}

func TestViewCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec harness; skipped in -short mode")
	}
	dir := t.TempDir()
	runChild := func(step int, failpoints string) int {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestViewCrashChild$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"SERVICE_CRASH_CHILD=1",
			"SERVICE_CRASH_DIR="+dir,
			fmt.Sprintf("SERVICE_CRASH_STEP=%d", step),
			"SERVICE_CRASH_FAILPOINTS="+failpoints,
		)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if code := ee.ExitCode(); code == viewCrashExit {
				return code
			}
			t.Fatalf("child (step %d, %q) exited %d:\n%s", step, failpoints, ee.ExitCode(), out)
		}
		t.Fatalf("child failed to run: %v\n%s", err, out)
		return -1
	}

	if code := runChild(0, ""); code != 0 {
		t.Fatalf("setup child exited %d", code)
	}
	sites := []string{
		store.FailpointWALAppend + "=exit:7",
		store.FailpointWALSync + "=exit:7",
		store.FailpointApply + "=exit:7",
	}
	for step := 1; step <= 6; step++ {
		site := sites[(step-1)%len(sites)]
		if code := runChild(step, site); code != viewCrashExit {
			t.Fatalf("step %d (%s): child exited %d, want %d", step, site, code, viewCrashExit)
		}
		// Recover in-process: the view must be re-registered, fresh, and
		// exactly consistent with the recovered catalog.
		s := newStoreService(t, dir, Config{Workers: 1})
		info, result, err := s.ViewResult("tv")
		if err != nil {
			t.Fatalf("step %d (%s): view after recovery: %v", step, site, err)
		}
		if info.Stale {
			t.Fatalf("step %d: recovered view is stale", step)
		}
		rep, err := s.Query(context.Background(), Request{Database: "tri"})
		if err != nil {
			t.Fatal(err)
		}
		if !result.Equal(rep.Result) {
			t.Fatalf("step %d (%s): recovered view diverged:\nview:      %s\nrecompute: %s",
				step, site, sortedTuples(result), sortedTuples(rep.Result))
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatalf("step %d: close: %v", step, err)
		}
	}
}

// TestViewMutationsGated: view registration and drop refuse while not ready.
func TestViewMutationsGated(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	s.SetReady(false)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	raw, _ := json.Marshal(map[string]any{"id": "tv", "database": "tri"})
	resp, err := http.Post(srv.URL+"/v1/views", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("view registration while not ready = %d, want 503", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/views/tv", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("view drop while not ready = %d, want 503", resp.StatusCode)
	}
}
