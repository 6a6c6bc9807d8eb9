package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postJSON posts body to path and decodes the response envelope.
func postJSON(t *testing.T, srv *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
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

// TestMutationsGatedOnReadiness pins the recovery-window contract: while the
// service is not ready (joind serves HTTP before the store is attached, and
// again during shutdown), register and ingest must be refused with 503 —
// never accepted into an in-memory-only catalog that a restart would lose.
func TestMutationsGatedOnReadiness(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.SetReady(false)
	register := `{"name":"tri","relations":[
		{"attrs":["A","B"],"tuples":[[0,1]]},
		{"attrs":["B","C"],"tuples":[[1,2]]},
		{"attrs":["C","A"],"tuples":[[2,0]]}]}`
	ingest := `{"database":"tri","mutations":[{"relation":0,"inserts":[[10,11]]}]}`
	for path, body := range map[string]string{"/v1/databases": register, "/v1/ingest": ingest} {
		code, out := postJSON(t, srv, path, body)
		if code != http.StatusServiceUnavailable || out["kind"] != "unavailable" {
			t.Errorf("not-ready POST %s = %d %v, want 503 unavailable", path, code, out)
		}
	}
	// Nothing must have leaked into the catalog or the store.
	if got := s.Databases(); len(got) != 0 {
		t.Fatalf("catalog after gated mutations: %v", got)
	}

	s.SetReady(true)
	if code, out := postJSON(t, srv, "/v1/databases", register); code != http.StatusCreated {
		t.Fatalf("ready register = %d %v", code, out)
	}
	if code, out := postJSON(t, srv, "/v1/ingest", ingest); code != http.StatusOK {
		t.Fatalf("ready ingest = %d %v", code, out)
	}
}

// TestNegativeBudgetsAreBadRequests: the governor reads a negative limit as
// none, so a negative query or view budget is a 400, never a run without
// limits or a view definition persisted with one.
func TestNegativeBudgetsAreBadRequests(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	// The budget binds: one tuple is too few for the triangle.
	if code, out := postJSON(t, srv, "/v1/query", `{"database":"tri","strategy":"cpf-expression","max_tuples":1}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("max_tuples 1 = %d %v, want 422", code, out)
	}
	for _, body := range []string{
		`{"database":"tri","strategy":"cpf-expression","max_tuples":-1}`,
		`{"database":"tri","max_intermediate_tuples":-1}`,
		`{"database":"tri","timeout_ms":-1}`,
	} {
		if code, out := postJSON(t, srv, "/v1/query", body); code != http.StatusBadRequest || out["kind"] != "bad_request" {
			t.Errorf("query %s = %d %v, want 400 bad_request", body, code, out)
		}
	}
	for _, body := range []string{
		`{"id":"tv","database":"tri","max_tuples":-1}`,
		`{"id":"tv","database":"tri","max_intermediate_tuples":-5}`,
	} {
		if code, out := postJSON(t, srv, "/v1/views", body); code != http.StatusBadRequest || out["kind"] != "bad_request" {
			t.Errorf("view %s = %d %v, want 400 bad_request", body, code, out)
		}
	}
	if views := s.Views(); len(views) != 0 {
		t.Fatalf("rejected view definitions registered: %v", views)
	}
}

// TestRequestBodyIsOneObject: a request body is one JSON object and then
// only whitespace. Trailing bytes — garbage or a second object — are a 400,
// so a concatenated second ingest batch is never silently dropped.
func TestRequestBodyIsOneObject(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if code, out := postJSON(t, srv, "/v1/query", "{\"database\":\"tri\"} \n\t"); code != http.StatusOK {
		t.Fatalf("query with trailing whitespace = %d %v, want 200", code, out)
	}
	batch := `{"database":"tri","mutations":[{"relation":0,"inserts":[[10,11]]}]}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"database":"tri"} trailing garbage`},
		{"/v1/query", `{"database":"tri"}{"database":"nope"}`},
		{"/v1/ingest", batch + batch},
		{"/v1/views", `{"id":"tv","database":"tri"}]`},
	} {
		if code, out := postJSON(t, srv, tc.path, tc.body); code != http.StatusBadRequest || out["kind"] != "bad_request" {
			t.Errorf("POST %s %s = %d %v, want 400 bad_request", tc.path, tc.body, code, out)
		}
	}
	if st := s.Stats(); st.Ingests != 0 || len(s.Views()) != 0 {
		t.Fatalf("rejected bodies took effect: %d ingests, views %v", st.Ingests, s.Views())
	}
}

// TestRequestBodyLimits pins the per-endpoint MaxBytesReader caps: an
// oversized body is 413 with kind "too_large", not an unbounded allocation.
func TestRequestBodyLimits(t *testing.T) {
	s := New(Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// Pad a syntactically valid query request past the 1 MiB query cap.
	body := `{"database":"x","strategy":"` + strings.Repeat(" ", maxQueryBody) + `"}`
	code, out := postJSON(t, srv, "/v1/query", body)
	if code != http.StatusRequestEntityTooLarge || out["kind"] != "too_large" {
		t.Fatalf("oversized query body = %d %v, want 413 too_large", code, out)
	}
	// A normal-sized request on the same server still works end to end.
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	if code, out := postJSON(t, srv, "/v1/query", `{"database":"tri"}`); code != http.StatusOK {
		t.Fatalf("small query = %d %v", code, out)
	}
}
