package service

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
)

// Tests that the encodings resident on a catalog snapshot's relations
// (relation.Relation.Block and the tries on it) are invalidated by
// nothing but the copy-on-write swap ingest already performs: a relation a
// batch does not touch keeps its pointer, hence its encoding; a touched one
// is a new relation and is re-encoded by the next query that reads it.

// trianglesDB builds {R(A,B), S(B,C), T(C,A)} holding triangles lo..hi−1
// whole, plus the S and T edges (but not the R edge) of triangle hi — so
// one insert into R closes it.
func trianglesDB(lo, hi int64) *relation.Database {
	r := relation.New(relation.MustSchema("A", "B"))
	s := relation.New(relation.MustSchema("B", "C"))
	t := relation.New(relation.MustSchema("C", "A"))
	for i := lo; i <= hi; i++ {
		e0, e1, e2 := triEdges(i)
		if i < hi {
			r.MustInsert(e0)
		}
		s.MustInsert(e1)
		t.MustInsert(e2)
	}
	return relation.MustDatabase(r, s, t)
}

// freshJoin is the reference ⋈D computed over deep copies, so it reads none
// of the encodings under test.
func freshJoin(t *testing.T, db *relation.Database) *relation.Relation {
	t.Helper()
	rels := make([]*relation.Relation, db.Len())
	for i, rel := range db.Relations() {
		rels[i] = rel.Clone()
	}
	return relation.MustDatabase(rels...).Join()
}

// hasNote reports whether some report note contains want.
func hasNote(notes []string, want string) bool {
	for _, n := range notes {
		if strings.Contains(n, want) {
			return true
		}
	}
	return false
}

// blocksOf returns every relation's resident block.
func blocksOf(db *relation.Database) []*relation.ColBlock {
	out := make([]*relation.ColBlock, db.Len())
	for i, rel := range db.Relations() {
		out[i] = rel.Block()
	}
	return out
}

func TestIngestReencodesOnlyTouchedRelations(t *testing.T) {
	ctx := context.Background()
	s := newStoreService(t, t.TempDir(), Config{Workers: 2})
	defer s.Close(ctx)
	if _, err := s.Register("tri", trianglesDB(0, 6)); err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup("tri")
	if err != nil {
		t.Fatal(err)
	}

	for pass, note := range []string{"tries: 0 resident, 3 built", "tries: 3 resident, 0 built"} {
		rep, err := s.Query(ctx, Request{Database: "tri", Strategy: "wcoj"})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result.Len() != 6 || !hasNote(rep.Notes, note) {
			t.Fatalf("wcoj pass %d: %d triangles, notes %q; want 6 and %q", pass, rep.Result.Len(), rep.Notes, note)
		}
	}
	before := e.db.Load()
	beforeBlocks := blocksOf(before)

	// One batch on R alone: the insert closes triangle 6, the delete opens
	// triangle 0.
	closing, _, _ := triEdges(6)
	opening, _, _ := triEdges(0)
	if _, err := s.Ingest(ctx, "tri", store.Batch{{Relation: 0, Inserts: []relation.Tuple{closing}, Deletes: []relation.Tuple{opening}}}); err != nil {
		t.Fatal(err)
	}
	after := e.db.Load()
	want := freshJoin(t, after)
	if want.Len() != 6 || want.Equal(freshJoin(t, before)) {
		t.Fatalf("reference after ingest has %d triangles or did not change", want.Len())
	}
	for _, strategy := range []string{"wcoj", "program", ""} {
		rep, err := s.Query(ctx, Request{Database: "tri", Strategy: strategy})
		if err != nil {
			t.Fatalf("%q after ingest: %v", strategy, err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("%q after ingest answered from a stale encoding: %v", strategy, rep.Result)
		}
		if strategy == "wcoj" && !hasNote(rep.Notes, "tries: 2 resident, 1 built") {
			t.Fatalf("wcoj after a one-relation batch: notes %q, want 2 resident, 1 built", rep.Notes)
		}
	}
	afterBlocks := blocksOf(after)
	if afterBlocks[0] == beforeBlocks[0] {
		t.Fatal("the touched relation kept its block")
	}
	for _, i := range []int{1, 2} {
		if afterBlocks[i] != beforeBlocks[i] {
			t.Fatalf("untouched relation %d was re-encoded", i)
		}
	}
}

func TestShardRebaseReencodesOnlyTouchedPartitions(t *testing.T) {
	ctx := context.Background()
	// Never broadcast by size: R(A,B) and T(C,A) partition on A, and S(B,C),
	// which lacks A, is shared by pointer.
	s := newStoreService(t, t.TempDir(), Config{Workers: 2, Shards: 2, ShardBroadcastThreshold: -1})
	defer s.Close(ctx)
	if _, err := s.Register("tri", trianglesDB(0, 12)); err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup("tri")
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Query(ctx, Request{Database: "tri", Strategy: "wcoj"}); err != nil || rep.Result.Len() != 12 {
		t.Fatalf("wcoj before ingest: %v, %v", rep, err)
	}
	g := e.group.Load()
	if g.Shards() != 2 || g.PartitionedCount() != 2 {
		t.Fatalf("layout: %d shards, %d partitioned relations", g.Shards(), g.PartitionedCount())
	}
	if g.DB(0).Relation(1) != g.DB(1).Relation(1) {
		t.Fatal("the broadcast relation is not one pointer across shards")
	}
	before := [][]*relation.ColBlock{blocksOf(g.DB(0)), blocksOf(g.DB(1))}

	closing, _, _ := triEdges(12)
	opening, _, _ := triEdges(0)
	batch := store.Batch{{Relation: 0, Inserts: []relation.Tuple{closing}, Deletes: []relation.Tuple{opening}}}
	touched := map[int]bool{g.Owner(0, closing): true, g.Owner(0, opening): true}
	if _, err := s.Ingest(ctx, "tri", batch); err != nil {
		t.Fatal(err)
	}
	ng := e.group.Load()
	if ng == g {
		t.Fatal("ingest did not rebase the group")
	}
	want := freshJoin(t, ng.Full())
	for _, strategy := range []string{"wcoj", "program", ""} {
		rep, err := s.Query(ctx, Request{Database: "tri", Strategy: strategy})
		if err != nil {
			t.Fatalf("%q after ingest: %v", strategy, err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("%q after ingest answered from a stale encoding: %v", strategy, rep.Result)
		}
	}
	for sh := 0; sh < 2; sh++ {
		after := blocksOf(ng.DB(sh))
		if same := after[0] == before[sh][0]; same == touched[sh] {
			t.Fatalf("shard %d: partition of R touched=%v but block kept=%v", sh, touched[sh], same)
		}
		for _, i := range []int{1, 2} {
			if after[i] != before[sh][i] {
				t.Fatalf("shard %d: untouched relation %d was re-encoded", sh, i)
			}
		}
	}
}

// TestConcurrentFirstQueriesDuringIngest races the first wcoj and program
// queries of a freshly registered database against an ingesting goroutine
// (run with -race). Batch v replaces triangle v−1 by triangle v across all
// three relations atomically, so the catalog at version v holds exactly the
// base triangles plus triangle v: an answer built from a stale or torn
// encoding would show a different set. Each answer must be the exact set of
// some version the catalog held while the query ran.
func TestConcurrentFirstQueriesDuringIngest(t *testing.T) {
	ctx := context.Background()
	s := newStoreService(t, t.TempDir(), Config{Workers: 4})
	defer s.Close(ctx)
	const base, batches, readers = 5, 25, 6
	db := trianglesDB(0, base) // triangles 0..base−1 whole
	if _, err := s.Register("tri", db); err != nil {
		t.Fatal(err)
	}
	// Version 0 is the registered database; version v ≥ 1 adds triangle
	// 100+v.
	answer := func(v int64) *relation.Relation {
		rows := relation.New(relation.MustSchema("A", "B", "C"))
		add := func(i int64) {
			r, s, _ := triEdges(i)
			rows.MustInsert(relation.Tuple{r[0], r[1], s[1]})
		}
		for i := int64(0); i < base; i++ {
			add(i)
		}
		if v > 0 {
			add(100 + v)
		}
		return rows
	}

	var version atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); v <= batches; v++ {
			prev := int64(-1)
			if v > 1 {
				prev = 100 + v - 1
			}
			if _, err := s.Ingest(ctx, "tri", triBatch(100+v, prev)); err != nil {
				t.Errorf("ingest %d: %v", v, err)
				return
			}
			version.Store(v)
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			strategy := []string{"wcoj", "program"}[g%2]
			for version.Load() < batches {
				lo := version.Load()
				rep, err := s.Query(ctx, Request{Database: "tri", Strategy: strategy})
				if err != nil {
					t.Errorf("%s: %v", strategy, err)
					return
				}
				// The ingester publishes the catalog before it bumps
				// version, so the pinned snapshot is at most one ahead.
				hi := version.Load() + 1
				ok := false
				for v := lo; v <= hi && !ok; v++ {
					ok = rep.Result.Equal(answer(v))
				}
				if !ok {
					t.Errorf("%s answered %v, which no catalog version in [%d,%d] holds", strategy, rep.Result, lo, hi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: the racing first readers left exactly one encoding per
	// relation behind, and the next query finds all three resident.
	e, err := s.lookup("tri")
	if err != nil {
		t.Fatal(err)
	}
	final := e.db.Load()
	if _, err := s.Query(ctx, Request{Database: "tri", Strategy: "wcoj"}); err != nil {
		t.Fatal(err)
	}
	blocks := blocksOf(final)
	rep, err := s.Query(ctx, Request{Database: "tri", Strategy: "wcoj"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(answer(batches)) || !hasNote(rep.Notes, "tries: 3 resident, 0 built") {
		t.Fatalf("final answer %v, notes %q", rep.Result, rep.Notes)
	}
	for i, b := range blocksOf(final) {
		if b != blocks[i] {
			t.Fatalf("relation %d changed its resident block without a mutation", i)
		}
	}
}
