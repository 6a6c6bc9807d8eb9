package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine/failpoint"
	"repro/internal/relation"
)

// triangle builds the three-relation cyclic example used throughout the
// repo: R(A,B), S(B,C), T(C,A), each {(1,2),(2,3),(3,1)}.
func triangle(t *testing.T) *relation.Database {
	t.Helper()
	mk := func(a, b string) *relation.Relation {
		r := relation.New(relation.MustSchema(a, b))
		r.MustInsert(relation.Ints(1, 2))
		r.MustInsert(relation.Ints(2, 3))
		r.MustInsert(relation.Ints(3, 1))
		return r
	}
	return relation.MustDatabase(mk("A", "B"), mk("B", "C"), mk("C", "A"))
}

func open(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustEqualDB asserts two databases hold identical relations, index by
// index — the "full relation diff" the recovery tests rely on.
func mustEqualDB(t *testing.T, got, want *relation.Database, context string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d relations, want %d", context, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !got.Relation(i).Equal(want.Relation(i)) {
			t.Fatalf("%s: relation %d differs:\n got %v\nwant %v",
				context, i, got.Relation(i), want.Relation(i))
		}
	}
}

func TestCreateApplyReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	// Insert one edge per relation, delete one existing edge.
	res, err := s.Apply("tri", Batch{
		{Relation: 0, Inserts: []relation.Tuple{relation.Ints(4, 5)}},
		{Relation: 1, Deletes: []relation.Tuple{relation.Ints(2, 3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("effective counts = +%d/-%d, want +1/-1", res.Inserted, res.Deleted)
	}
	if res.WALBytes <= 0 {
		t.Fatalf("WALBytes = %d", res.WALBytes)
	}
	want := res.DB
	cur, err := s.Current("tri")
	if err != nil || cur != want {
		t.Fatalf("Current = %p (%v), want the ApplyResult catalog %p", cur, err, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean shutdown wrote a final checkpoint: reopen must replay nothing.
	s2 := open(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.ReplayedRecords != 0 || st.RecoveredDatabases != 1 {
		t.Fatalf("clean reopen: replayed %d records, recovered %d dbs", st.ReplayedRecords, st.RecoveredDatabases)
	}
	got, err := s2.Current("tri")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualDB(t, got, want, "after clean reopen")
}

func TestReopenReplaysWALTail(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CheckpointEvery: -1}) // no automatic checkpoints
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	var want *relation.Database
	for i := int64(10); i < 15; i++ {
		res, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(i, i+1)}}})
		if err != nil {
			t.Fatal(err)
		}
		want = res.DB
	}
	// Simulate a crash: no Close, just drop the store and reopen. The WAL
	// holds all five records (CheckpointEvery < 0, so no folding).
	s2 := open(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.ReplayedRecords != 5 {
		t.Fatalf("replayed %d records, want 5", st.ReplayedRecords)
	}
	got, err := s2.Current("tri")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualDB(t, got, want, "after replay")
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CheckpointEvery: -1})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	var want *relation.Database
	for i := int64(0); i < 3; i++ {
		res, err := s.Apply("tri", Batch{{Relation: 2, Inserts: []relation.Tuple{relation.Ints(7+i, 7)}}})
		if err != nil {
			t.Fatal(err)
		}
		want = res.DB
	}
	if err := s.Checkpoint("tri"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Checkpoints)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The WAL is now empty; the reopen replays nothing but sees the data.
	s2 := open(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", st.ReplayedRecords)
	}
	got, err := s2.Current("tri")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualDB(t, got, want, "after checkpoint+reopen")
}

func TestAutomaticCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CheckpointEvery: 2})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if _, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(100+i, i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	// The background checkpointer runs asynchronously; Close performs a
	// final checkpoint regardless, so after Close at least one automatic or
	// final checkpoint must have folded the WAL.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Checkpoints < 1 {
		t.Fatalf("checkpoints = %d, want >= 1", st.Checkpoints)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want 0 (WAL folded)", st.ReplayedRecords)
	}
}

func TestCopyOnWriteIsolation(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Current("tri")
	wantJoin := before.Join()
	res, err := s.Apply("tri", Batch{
		{Relation: 0, Deletes: []relation.Tuple{relation.Ints(1, 2)}},
		{Relation: 1, Inserts: []relation.Tuple{relation.Ints(9, 9)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The old catalog is untouched: same join result, same relation sizes.
	if got := before.Join(); !got.Equal(wantJoin) {
		t.Fatal("pre-batch catalog changed under a reader")
	}
	if before.Relation(0).Len() != 3 || before.Relation(0).Contains(relation.Ints(1, 2)) != true {
		t.Fatal("pre-batch relation mutated in place")
	}
	// Untouched relations are shared, touched ones are fresh.
	if res.DB.Relation(2) != before.Relation(2) {
		t.Error("untouched relation was copied, want shared pointer")
	}
	if res.DB.Relation(0) == before.Relation(0) {
		t.Error("touched relation was shared, want copy")
	}
}

func TestApplyValidation(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Batch{
		"empty batch":        {},
		"no tuples":          {{Relation: 0}, {Relation: 1}},
		"bad relation index": {{Relation: 5, Inserts: []relation.Tuple{relation.Ints(1, 2)}}},
		"negative index":     {{Relation: -1}},
		"insert arity":       {{Relation: 0, Inserts: []relation.Tuple{relation.Ints(1, 2, 3)}}},
		"delete arity":       {{Relation: 0, Deletes: []relation.Tuple{relation.Ints(1)}}},
	}
	before, _ := s.Current("tri")
	for name, b := range cases {
		if _, err := s.Apply("tri", b); !errors.Is(err, ErrBadBatch) {
			t.Errorf("%s: got %v, want ErrBadBatch", name, err)
		}
	}
	after, _ := s.Current("tri")
	if before != after {
		t.Fatal("catalog swapped despite rejected batches")
	}
	if _, err := s.Apply("nope", Batch{{Relation: 0}}); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("unknown db: got %v", err)
	}
}

func TestDeleteBeforeInsertWithinMutation(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	// A tuple named in both deletes and inserts ends up present.
	res, err := s.Apply("tri", Batch{{
		Relation: 0,
		Inserts:  []relation.Tuple{relation.Ints(1, 2)},
		Deletes:  []relation.Tuple{relation.Ints(1, 2)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DB.Relation(0).Contains(relation.Ints(1, 2)) {
		t.Fatal("delete+insert of the same tuple should leave it present")
	}
	if res.DB.Relation(0).Len() != 3 {
		t.Fatalf("relation size = %d, want 3", res.DB.Relation(0).Len())
	}
}

func TestCreateErrors(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	tri := triangle(t)
	if err := s.Create("ok-name_1.x", tri); err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}
	if err := s.Create("ok-name_1.x", tri); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: got %v", err)
	}
	for _, bad := range []string{"", "../evil", "a/b", ".hidden", "-dash", "name with spaces"} {
		if err := s.Create(bad, tri); !errors.Is(err, ErrBadName) {
			t.Errorf("name %q: got %v, want ErrBadName", bad, err)
		}
	}
	if err := s.Create("empty", nil); !errors.Is(err, ErrBadBatch) {
		t.Errorf("nil db: got %v", err)
	}
}

func TestClosedStore(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second close: got %v", err)
	}
	if _, err := s.Apply("tri", Batch{{Relation: 0}}); !errors.Is(err, ErrClosed) {
		t.Errorf("apply after close: got %v", err)
	}
	if err := s.Create("x", triangle(t)); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close: got %v", err)
	}
	if _, err := s.Current("tri"); !errors.Is(err, ErrClosed) {
		t.Errorf("current after close: got %v", err)
	}
}

func TestIncompleteCreateDirIgnoredOnOpen(t *testing.T) {
	dir := t.TempDir()
	// A directory without a snapshot is a create that never reached its
	// durability point; Open must skip it.
	if err := os.MkdirAll(filepath.Join(dir, "halfmade"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "halfmade", snapshotTemp), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	defer s.Close()
	if got := s.Names(); len(got) != 0 {
		t.Fatalf("recovered %v from a snapshot-less directory", got)
	}
}

// TestLeftoverStatsFilesIgnoredOnOpen: stores written before the statistics
// version was removed carry stats.dat and possibly stats.tmp at the root.
// Open must not read them, whatever they hold.
func TestLeftoverStatsFilesIgnoredOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CheckpointEvery: -1})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(4, 5)}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stats.dat", "stats.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage!"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	got, err := s2.Current("tri")
	if err != nil {
		t.Fatal(err)
	}
	mustEqualDB(t, got, res.DB, "beside leftover stats files")
}

func TestWALAppendFailpointLeavesStateClean(t *testing.T) {
	defer failpoint.Reset()
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Current("tri")
	failpoint.Enable(FailpointWALAppend, 1, nil)
	_, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(8, 8)}}})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("got %v, want injected", err)
	}
	after, _ := s.Current("tri")
	if before != after {
		t.Fatal("catalog swapped despite failed WAL append")
	}
	// The failed batch must not reappear after a restart.
	res, err := s.Apply("tri", Batch{{Relation: 1, Inserts: []relation.Tuple{relation.Ints(5, 5)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Relation(0).Contains(relation.Ints(8, 8)) {
		t.Fatal("failed batch leaked into the catalog")
	}
}

func TestApplyFailpointReplaysOnRestart(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	s := open(t, dir, Options{CheckpointEvery: -1})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable(FailpointApply, 1, nil)
	_, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(8, 8)}}})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("got %v, want injected", err)
	}
	// The record reached the WAL; the in-memory swap was refused. A
	// "crash" (no Close) and reopen must replay it — post-batch state.
	s2 := open(t, dir, Options{})
	defer s2.Close()
	got, err := s2.Current("tri")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Relation(0).Contains(relation.Ints(8, 8)) {
		t.Fatal("WAL-logged batch not replayed after restart")
	}
	if st := s2.Stats(); st.ReplayedRecords != 1 {
		t.Fatalf("replayed %d, want 1", st.ReplayedRecords)
	}
}

func TestConcurrentAppliesAndReaders(t *testing.T) {
	s := open(t, t.TempDir(), Options{CheckpointEvery: 4})
	defer s.Close()
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				_, err := s.Apply("tri", Batch{{
					Relation: w % 3,
					Inserts:  []relation.Tuple{relation.Ints(int64(1000+w*100+i), int64(w))},
				}})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Readers: a grabbed catalog pointer must stay internally consistent —
	// its join result is a pure function of its (immutable) relations.
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db, err := s.Current("tri")
				if err != nil {
					t.Error(err)
					return
				}
				n1 := db.Relation(0).Len() + db.Relation(1).Len() + db.Relation(2).Len()
				j := db.Join()
				n2 := db.Relation(0).Len() + db.Relation(1).Len() + db.Relation(2).Len()
				if n1 != n2 {
					t.Errorf("catalog mutated under reader: %d then %d tuples", n1, n2)
					return
				}
				_ = j
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	db, _ := s.Current("tri")
	total := db.Relation(0).Len() + db.Relation(1).Len() + db.Relation(2).Len()
	if total != 9+writers*perWriter {
		t.Fatalf("total tuples = %d, want %d", total, 9+writers*perWriter)
	}
}
