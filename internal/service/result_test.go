package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// The result-body oracle: a copy of the response path results took before
// they were appended from their block — the response struct with the result
// set, truncate's sorted-prefix copy, Relation.MarshalJSON's clone and
// Tuple.Compare sort, then writeJSON's encoder.

// legacyRelation encodes a relation the way Relation.MarshalJSON did:
// attrs, then a sorted copy of the rows, each value formatted per row.
type legacyRelation struct{ r *relation.Relation }

func (l legacyRelation) MarshalJSON() ([]byte, error) {
	attrs, err := json.Marshal(l.r.Schema().Attrs())
	if err != nil {
		return nil, err
	}
	buf := append([]byte(`{"attrs":`), attrs...)
	buf = append(buf, `,"tuples":`...)
	if l.r.Len() == 0 {
		return append(buf, "null}"...), nil
	}
	buf = append(buf, '[')
	for i, t := range l.r.SortedRows() {
		if i > 0 {
			buf = append(buf, ',')
		}
		if t == nil {
			buf = append(buf, "null"...)
			continue
		}
		buf = append(buf, '[')
		for j, v := range t {
			if j > 0 {
				buf = append(buf, ',')
			}
			b, err := v.MarshalJSON()
			if err != nil {
				return nil, err
			}
			buf = append(buf, b...)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...), nil
}

// legacyTruncate is the deleted truncate: the sorted prefix, copied.
func legacyTruncate(r *relation.Relation, max int) (*legacyRelation, bool) {
	if max <= 0 || r.Len() <= max {
		return &legacyRelation{r}, false
	}
	out, err := relation.NewFromDistinctRows(r.Schema(), r.SortedRows()[:max])
	if err != nil {
		panic(err)
	}
	return &legacyRelation{out}, true
}

// The legacy response structs set the result fields the handlers now splice
// in. Their own Result fields shadow the embedded ones and, coming after the
// embedded struct, encode last, where the handlers' bodies carried them.
type legacyQueryResponse struct {
	queryResponse
	Result          *legacyRelation `json:"result,omitempty"`
	ResultTruncated bool            `json:"result_truncated,omitempty"`
}

type legacyViewResponse struct {
	viewResponse
	Result          *legacyRelation `json:"result,omitempty"`
	ResultTruncated bool            `json:"result_truncated,omitempty"`
}

// legacyBody is writeJSON's body for v.
func legacyBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getBody issues the request and returns the 200 body.
func getBody(t *testing.T, req *http.Request) []byte {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, resp.StatusCode, body)
	}
	return body
}

// churnDatabases mirrors the served benchmark's plan_churn catalog: 48
// distinct connected random schemes, every fourth acyclic, 40 tuples per
// relation over a domain of 6.
func churnDatabases(t *testing.T) []*relation.Database {
	t.Helper()
	spec := workload.RandomSchemeSpec{Relations: 6, Attrs: 7, MaxArity: 3, Connected: true}
	schemes, tuples := rand.New(rand.NewSource(1992)), rand.New(rand.NewSource(1992))
	seen := map[string]bool{}
	var dbs []*relation.Database
	for len(dbs) < 48 {
		h, err := workload.RandomScheme(schemes, spec)
		if err != nil {
			t.Fatal(err)
		}
		if wantAcyclic := len(dbs)%4 == 3; h.Acyclic() != wantAcyclic || seen[h.Fingerprint()] {
			continue
		}
		seen[h.Fingerprint()] = true
		db, err := workload.RandomDatabase(tuples, h, 40, 6)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	return dbs
}

// mixedDB is a dense triangle over Int and String values, among them the
// strings JSON escapes: HTML characters, quotes, invalid UTF-8, U+2028 and
// the empty string.
func mixedDB() *relation.Database {
	pool := []relation.Value{
		relation.Int(-7), relation.Int(0), relation.Int(42), relation.String(""),
		relation.String("<&>"), relation.String(`"q"\`), relation.String("\xff"), relation.String("a\u2028b"),
	}
	rng := rand.New(rand.NewSource(2028))
	rel := func(a, b string) *relation.Relation {
		r := relation.New(relation.MustSchema(a, b))
		for i := 0; i < 40; i++ {
			r.MustInsert(relation.Tuple{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]})
		}
		return r
	}
	return relation.MustDatabase(rel("A", "B"), rel("B", "C"), rel("C", "A"))
}

// TestResultBodiesMatchEncoder pins query and view response bodies byte for
// byte to the legacy path, for every strategy that answers each database and
// for result caps that keep nothing back, one tuple, a few, and all: a
// triangle, Example 3 at q = 2, 4, 6, the plan_churn catalog and a mixed
// Int/String database, unsharded and (the gather's blockless results) over
// two shards, then a view read after two ingests (ivm's blockless result).
func TestResultBodiesMatchEncoder(t *testing.T) {
	ctx := context.Background()
	dbs := map[string]*relation.Database{"tri": triangleDB(t), "mixed": mixedDB()}
	for q := int64(2); q <= 6; q += 2 {
		spec, err := workload.Example3(q)
		if err != nil {
			t.Fatal(err)
		}
		if dbs[fmt.Sprintf("e3q%d", q)], err = spec.CycleDatabase(); err != nil {
			t.Fatal(err)
		}
	}
	for i, db := range churnDatabases(t) {
		dbs[fmt.Sprintf("churn%02d", i)] = db
	}
	check := func(s *Service, names ...string) {
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		for _, name := range names {
			if _, err := s.Register(name, dbs[name]); err != nil {
				t.Fatal(err)
			}
			answered := 0
			for _, strategy := range engine.StrategyNames() {
				req := Request{Database: name, Strategy: strategy, MaxTuples: 1 << 18}
				rep, err := s.Query(ctx, req)
				if err != nil {
					continue // not applicable to this scheme, or over the cap
				}
				answered++
				for _, max := range []int{0, 1, 7, rep.Result.Len() + 1} {
					raw, _ := json.Marshal(queryRequest{Database: name, Strategy: strategy, MaxTuples: req.MaxTuples,
						IncludeResult: true, MaxResultTuples: max})
					post, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/query", bytes.NewReader(raw))
					got := getBody(t, post)
					var want legacyQueryResponse // the head as served; the result field is overwritten
					if err := json.Unmarshal(got, &want); err != nil {
						t.Fatal(err)
					}
					want.Result, want.ResultTruncated = legacyTruncate(rep.Result, max)
					if w := legacyBody(t, want); !bytes.Equal(got, w) {
						t.Fatalf("%s, %s, max %d:\n got %s\nwant %s", name, strategy, max, got, w)
					}
				}
			}
			if answered < 4 {
				t.Fatalf("%s: only %d strategies answered", name, answered)
			}
		}
	}
	var names []string
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	check(New(Config{Workers: 2}), names...)
	check(New(Config{Workers: 2, Shards: 2, ShardBroadcastThreshold: -1}), "tri", "mixed", "e3q4")

	s := newStoreService(t, t.TempDir(), Config{Workers: 2})
	defer s.Close(ctx)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		if _, err := s.Ingest(ctx, "tri", triBatch(i, -1)); err != nil {
			t.Fatal(err)
		}
	}
	_, result, err := s.ViewResult("tv")
	if err != nil || result.Len() != 3 {
		t.Fatalf("view result %v (err %v), want 3 triangles", result, err)
	}
	for _, max := range []int{0, 1, 7, result.Len() + 1} {
		get, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/views/tv?max_result=%d", srv.URL, max), nil)
		got := getBody(t, get)
		var want legacyViewResponse
		if err := json.Unmarshal(got, &want); err != nil {
			t.Fatal(err)
		}
		want.Result, want.ResultTruncated = legacyTruncate(result, max)
		if w := legacyBody(t, want); !bytes.Equal(got, w) {
			t.Fatalf("view, max %d:\n got %s\nwant %s", max, got, w)
		}
	}
}

// TestResultCapParsing pins the result caps to non-negative base-10
// integers: max_result is read whole (no "10abc" as 10, "1e3" as 1 or "0x10"
// as 0, which meant no limit), and a negative cap on either endpoint is a
// 400 instead of silently meaning "all".
func TestResultCapParsing(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 2})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView(store.ViewDef{ID: "tv", Database: "tri"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), "tri", triBatch(1, -1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query     string
		status    int
		truncated bool
	}{
		{"", http.StatusOK, false},
		{"max_result=0", http.StatusOK, false},
		{"max_result=1", http.StatusOK, true},
		{"max_result=2", http.StatusOK, false},
		{"max_result=" + url.QueryEscape("+1"), http.StatusOK, true},
		{"max_result=10abc", http.StatusBadRequest, false},
		{"max_result=1e3", http.StatusBadRequest, false},
		{"max_result=0x10", http.StatusBadRequest, false},
		{"max_result=1.5", http.StatusBadRequest, false},
		{"max_result=-1", http.StatusBadRequest, false},
		{"max_result=" + url.QueryEscape(" 1"), http.StatusBadRequest, false},
	} {
		resp, err := http.Get(srv.URL + "/v1/views/tv?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Kind            string `json:"kind"`
			ResultTruncated bool   `json:"result_truncated"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || body.ResultTruncated != tc.truncated ||
			(tc.status == http.StatusBadRequest) != (body.Kind == "bad_request") {
			t.Errorf("%q: status %d, kind %q, truncated %v; want %d, truncated %v",
				tc.query, resp.StatusCode, body.Kind, body.ResultTruncated, tc.status, tc.truncated)
		}
	}
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"database":"tri","include_result":true,"max_result_tuples":1}`, http.StatusOK},
		{`{"database":"tri","include_result":true,"max_result_tuples":-1}`, http.StatusBadRequest},
		{`{"database":"tri","max_result_tuples":-1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
	}
}
