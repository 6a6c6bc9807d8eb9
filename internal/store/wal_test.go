package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine/failpoint"
	"repro/internal/relation"
)

// TestWALSyncFailpointRollsBackRecord: an error at the sync site comes after
// the whole record is written, so the append must truncate it away again
// (wal.rollbackTo). A later batch then lands in its place, and a reopen
// without Close replays that batch alone.
func TestWALSyncFailpointRollsBackRecord(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	s := open(t, dir, Options{CheckpointEvery: -1})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable(FailpointWALSync, 1, nil)
	_, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(8, 8)}}})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("got %v, want injected", err)
	}
	if _, err := s.Apply("tri", Batch{{Relation: 1, Inserts: []relation.Tuple{relation.Ints(5, 5)}}}); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	got, err := s2.Current("tri")
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation(0).Contains(relation.Ints(8, 8)) {
		t.Fatal("the batch whose sync failed was replayed after restart")
	}
	if !got.Relation(1).Contains(relation.Ints(5, 5)) {
		t.Fatal("the later batch was not replayed after restart")
	}
	if st := s2.Stats(); st.ReplayedRecords != 1 || st.TornTailBytes != 0 {
		t.Fatalf("replayed %d records with %d torn bytes, want 1 and 0", st.ReplayedRecords, st.TornTailBytes)
	}
}

// TestSyncLoopClearsDirty: under FsyncInterval an append leaves the WAL
// dirty, and the background syncLoop flushes it and clears the flag.
func TestSyncLoopClearsDirty(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond, CheckpointEvery: -1})
	defer s.Close()
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	st, err := s.lookup("tri")
	if err != nil {
		t.Fatal(err)
	}
	if st.wal.dirty.Load() {
		t.Fatal("a fresh WAL is dirty")
	}
	if _, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(8, 8)}}}); err != nil {
		t.Fatal(err)
	}
	// Only syncLoop clears the flag here: automatic checkpoints are off and
	// the store stays open until the deferred Close.
	for deadline := time.Now().Add(5 * time.Second); st.wal.dirty.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("syncLoop left the WAL dirty for 5s")
		}
	}
}

// TestFsyncPolicyRoundTrip: each policy's String parses back to it, case
// insensitively, and an unknown name is refused with the valid ones listed.
func TestFsyncPolicyRoundTrip(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		for _, name := range []string{p.String(), strings.ToUpper(p.String())} {
			got, err := ParseFsyncPolicy(name)
			if err != nil || got != p {
				t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	_, err := ParseFsyncPolicy("sometimes")
	if err == nil || !strings.Contains(err.Error(), "always, interval, never") {
		t.Fatalf("ParseFsyncPolicy(sometimes) = %v, want an error listing the policies", err)
	}
	if got := FsyncPolicy(7).String(); got != "FsyncPolicy(7)" {
		t.Errorf("unknown policy renders as %q", got)
	}
}

// TestViewsRecoverWithRetiredBudgetFields: a views.dat written while view
// definitions carried tuple budgets still opens. The retired fields are
// ignored, and the next save writes the definitions without them.
func TestViewsRecoverWithRetiredBudgetFields(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`[{"id":"tv","database":"tri","max_tuples":1,"max_intermediate_tuples":1}]`)
	raw := appendRecord([]byte(viewsMagic), legacy)
	if err := os.WriteFile(filepath.Join(dir, viewsName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, Options{})
	defer s.Close()
	defs := s.Views()
	if len(defs) != 1 || defs[0] != (ViewDef{ID: "tv", Database: "tri"}) {
		t.Fatalf("recovered %+v, want one definition tv over tri", defs)
	}
	if err := s.SaveViews(defs); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, viewsName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(saved), "max_") {
		t.Fatalf("re-saved views.dat still carries a budget: %q", saved)
	}
}
