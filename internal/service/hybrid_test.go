package service

import (
	"context"
	"strings"
	"testing"
)

// TestHybridQueryFeedbackAndVersioning walks the full statistics loop at the
// service layer: a hybrid query plans from the registration-time sketches
// and feeds its q-error back; an ingest batch folds its deltas into the
// sketches and drops the fingerprint's cached plans, so the next hybrid
// query misses the plan cache and re-plans against post-ingest statistics.
func TestHybridQueryFeedbackAndVersioning(t *testing.T) {
	s := newStoreService(t, t.TempDir(), Config{Workers: 1})
	defer s.Close(context.Background())
	if _, err := s.Register("tri", triDB(t)); err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup("tri")
	if err != nil {
		t.Fatal(err)
	}

	rep, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "hybrid"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Len() != 1 {
		t.Fatalf("1 triangle joined to %d rows", rep.Result.Len())
	}
	if rep.PlanCacheHit {
		t.Fatal("first hybrid query cannot hit the plan cache")
	}
	if c := e.sketches.Correction(e.fingerprint); c <= 0 {
		t.Fatalf("post-query correction = %v, want a recorded feedback ratio", c)
	}

	// No views are registered: sketch maintenance and plan invalidation
	// must happen anyway (they gate statistics-dependent plan reuse, not
	// view maintenance).
	if _, err := s.Ingest(context.Background(), "tri", triBatch(1, -1)); err != nil {
		t.Fatal(err)
	}
	if rows := e.sketches.Snapshot()[0].Rows(); rows != 2 {
		t.Fatalf("sketch rows after ingest = %d, want 2 (delta folded in)", rows)
	}

	rep2, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "hybrid"})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PlanCacheHit {
		t.Fatal("post-ingest hybrid query reused a plan derived from stale statistics")
	}
	if rep2.Result.Len() != 2 {
		t.Fatalf("2 triangles joined to %d rows", rep2.Result.Len())
	}
	// No batch since the re-plan, warm cache: the second lookup must hit.
	rep3, err := s.Query(context.Background(), Request{Database: "tri", Strategy: "hybrid"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.PlanCacheHit {
		t.Fatal("repeat query with no intervening ingest missed the plan cache")
	}

	var b strings.Builder
	s.Metrics().WriteText(&b)
	text := b.String()
	for _, series := range []string{
		"joind_optimizer_qerror_count 3",
		"joind_optimizer_hybrid_routes_total",
		"joind_optimizer_sketch_drift_total",
		"joind_optimizer_sketch_rebuilds_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}
