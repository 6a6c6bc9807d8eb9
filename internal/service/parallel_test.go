package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

// Tests for intra-query worker grants: configuration defaulting, the clamp,
// the report and stats, and the HTTP surface.

func TestConfigQueryWorkerDefaults(t *testing.T) {
	cfg := Config{Workers: 3}.withDefaults()
	if cfg.QueryWorkers != 1 {
		t.Fatalf("QueryWorkers default = %d, want 1 (sequential)", cfg.QueryWorkers)
	}
}

func TestGrantWorkersClamps(t *testing.T) {
	s := New(Config{Workers: 2, QueryWorkers: 4})
	for _, c := range []struct{ asked, want int }{
		{0, 4},  // the service default
		{16, 4}, // clamped to QueryWorkers
		{4, 4},
		{2, 2},
		{1, 1}, // an explicit sequential ask
	} {
		if got := s.grantWorkers(c.asked); got != c.want {
			t.Errorf("ask %d: granted %d, want %d", c.asked, got, c.want)
		}
	}
	if got := New(Config{}).grantWorkers(0); got != 1 {
		t.Errorf("default ask under sequential queries: granted %d, want 1", got)
	}
	if st := s.Stats(); st.QueryWorkers != 4 {
		t.Errorf("Stats.QueryWorkers = %d, want 4", st.QueryWorkers)
	}
}

func TestQueryWorkersGrantReflectedInReport(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	s := New(Config{Workers: 2, QueryWorkers: 4})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Query(context.Background(), Request{Database: "tri", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Parallelism != 1 {
		t.Fatalf("explicit sequential query: Parallelism = %d", seq.Parallelism)
	}
	par, err := s.Query(context.Background(), Request{Database: "tri"}) // default = QueryWorkers
	if err != nil {
		t.Fatal(err)
	}
	if par.Parallelism != 4 {
		t.Fatalf("default query under QueryWorkers=4: Parallelism = %d", par.Parallelism)
	}
	if !par.Result.Equal(seq.Result) {
		t.Fatal("parallel query result differs from sequential")
	}
}

func TestConcurrentParallelQueriesUnderRace(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	s := New(Config{Workers: 4, QueryWorkers: 3})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query(context.Background(), Request{Database: "tri", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 12
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := s.Query(context.Background(), Request{Database: "tri", Workers: 3})
			if err == nil && !rep.Result.Equal(want.Result) {
				t.Errorf("caller %d: result differs", i)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}

func TestHTTPQueryWorkersRoundTrip(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	s := New(Config{Workers: 2, QueryWorkers: 4})
	if _, err := s.Register("tri", triangleDB(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"database":"tri","workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Parallelism int `json:"parallelism"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Parallelism != 2 {
		t.Fatalf("response parallelism = %d, want 2", body.Parallelism)
	}
}
