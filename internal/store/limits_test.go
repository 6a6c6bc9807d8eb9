package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
)

// The size-limit contract: a batch whose encoded payload cannot be replayed
// (readRecord caps WAL records at MaxRecordSize) must be rejected before it
// is written, never acknowledged; snapshots are exempt from the WAL cap
// because the atomic-rename protocol makes their one record trusted.

func TestReadRecordLimits(t *testing.T) {
	frame := appendRecord(nil, make([]byte, MaxRecordSize+1))
	if _, _, err := readRecord(frame); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("readRecord above the WAL cap: got %v, want ErrTooLarge", err)
	}
	payload, n, err := readRecordLimit(frame, maxFramePayload)
	if err != nil || n != len(frame) || len(payload) != MaxRecordSize+1 {
		t.Fatalf("readRecordLimit at the frame cap: payload %d, consumed %d, err %v",
			len(payload), n, err)
	}
}

func TestWALAppendRejectsOversizedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := createWAL(path, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("oversized append: got %v, want ErrBadBatch", err)
	}
	if !w.empty() {
		t.Fatalf("oversized append wrote bytes: size %d", w.size)
	}
	// The WAL stays usable, and a reopen replays exactly the good record —
	// nothing acknowledged is ever dropped as a "torn tail".
	if _, err := w.append([]byte("acknowledged")); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, payloads, torn, err := openWAL(path, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || string(payloads[0]) != "acknowledged" || torn != 0 {
		t.Fatalf("reopen: %d payloads, %d torn bytes", len(payloads), torn)
	}
}

func TestApplyRejectsOversizedBatch(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fsync: FsyncNever, CheckpointEvery: -1})
	if err := s.Create("tri", triangle(t)); err != nil {
		t.Fatal(err)
	}
	acked, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{relation.Ints(50, 60)}}})
	if err != nil {
		t.Fatal(err)
	}
	// One tuple whose string value alone exceeds the WAL record cap.
	huge := relation.Tuple{relation.String(strings.Repeat("x", MaxRecordSize+1)), relation.String("y")}
	if _, err := s.Apply("tri", Batch{{Relation: 0, Inserts: []relation.Tuple{huge}}}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("oversized batch: got %v, want ErrBadBatch", err)
	}
	if cur, _ := s.Current("tri"); cur != acked.DB {
		t.Fatal("catalog swapped despite rejected batch")
	}
	// "Crash" (no Close) and reopen: the acknowledged batch is intact — the
	// rejected one left no record to mistake for a torn tail.
	s2 := open(t, dir, Options{})
	defer s2.Close()
	got, err := s2.Current("tri")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Relation(0).Contains(relation.Ints(50, 60)) {
		t.Fatal("acknowledged batch lost after reopen")
	}
	if got.Relation(0).Contains(huge) {
		t.Fatal("rejected batch reappeared after reopen")
	}
	if st := s2.Stats(); st.ReplayedRecords != 1 || st.TornTailBytes != 0 {
		t.Fatalf("replayed %d records, %d torn bytes; want 1 and 0",
			st.ReplayedRecords, st.TornTailBytes)
	}
}

func TestSnapshotLargerThanWALRecordLimit(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fsync: FsyncNever})
	// Nine ~8 MiB string values push the encoded catalog past MaxRecordSize;
	// the snapshot must still write and, crucially, still load on reopen.
	r := relation.New(relation.MustSchema("A", "B"))
	for i := 0; i < 9; i++ {
		r.MustInsert(relation.Tuple{relation.String(strings.Repeat("x", 8<<20) + fmt.Sprint(i)), relation.String("y")})
	}
	if err := s.Create("big", relation.MustDatabase(r)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SnapshotBytes <= MaxRecordSize {
		t.Fatalf("snapshot is only %d bytes; the test needs one above MaxRecordSize", st.SnapshotBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	got, err := s2.Current("big")
	if err != nil {
		t.Fatalf("recovering an above-WAL-cap snapshot: %v", err)
	}
	if got.Relation(0).Len() != 9 {
		t.Fatalf("recovered %d tuples, want 9", got.Relation(0).Len())
	}
}

func TestWALFsyncFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := createWAL(path, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	// A real fsync failure leaves the on-disk tail indeterminate (the kernel
	// may have dropped the dirty pages); the WAL must refuse to acknowledge
	// anything further on that fd.
	w.failed = errors.New("injected: device error")
	if _, err := w.append([]byte("x")); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append on poisoned WAL: got %v, want ErrWALFailed", err)
	}
	if err := w.sync(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("sync on poisoned WAL: got %v, want ErrWALFailed", err)
	}
	// A successful checkpoint truncate (everything of unknown fate ends up
	// beyond EOF, durably) repairs the WAL.
	if err := w.truncate(); err != nil {
		t.Fatal(err)
	}
	if w.failed != nil {
		t.Fatalf("truncate did not clear the poison: %v", w.failed)
	}
	if _, err := w.append([]byte("back")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}
