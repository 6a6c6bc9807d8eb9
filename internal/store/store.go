// Package store is joind's durable mutation path: a write-ahead-logged,
// snapshot-checkpointed catalog of named databases. Each database lives in
// its own directory under the data dir as an atomic snapshot file plus a
// WAL of batch records; an ingest batch is appended (length-prefixed,
// CRC32C-checksummed) to the WAL first, then applied to the in-memory
// catalog as a copy-on-write swap — in-flight queries keep the
// *relation.Database pointer they grabbed at admission and never observe a
// half-applied batch. A background checkpointer folds the WAL into a fresh
// snapshot (temp file + rename) and truncates it; on open, the store loads
// each snapshot and replays the WAL tail, tolerating a torn final record,
// which is exactly what a crash mid-append leaves behind.
//
// Crash-consistency contract (the recovery harness in crash_test.go
// enforces it at ≥20 randomized kill points): after a crash at any moment,
// reopening the store yields, for every database, the catalog as of some
// batch boundary — a batch is either fully present or fully absent, and a
// batch acknowledged under FsyncAlways is always present. See
// docs/STORAGE.md for the full format and the failpoint map.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine/failpoint"
	"repro/internal/relation"
)

// Typed store errors; match with errors.Is. (Corruption errors are in
// codec.go.)
var (
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrUnknownDatabase reports an operation on a name the store does not
	// hold.
	ErrUnknownDatabase = errors.New("store: unknown database")
	// ErrExists reports a Create with an already-taken name.
	ErrExists = errors.New("store: database already exists")
	// ErrBadBatch reports a batch that does not fit the database scheme
	// (relation index out of range, tuple arity mismatch, empty batch).
	ErrBadBatch = errors.New("store: invalid batch")
	// ErrBadName reports a database name unusable as a directory name.
	ErrBadName = errors.New("store: invalid database name")
	// ErrWALFailed reports a WAL whose fsync failed: the kernel may have
	// dropped the unflushed pages, so the on-disk tail is indeterminate and
	// the database refuses further mutations (reads keep working) until a
	// checkpoint rebuilds the log — or the process restarts and recovery
	// re-establishes a known-good state.
	ErrWALFailed = errors.New("store: wal fsync failed; database is read-only")
)

// FailpointApply fires after the WAL append succeeds and before the
// in-memory swap: a crash here leaves the batch only in the WAL, and
// recovery must replay it (post-batch state).
const FailpointApply = "store.apply"

// dbName constrains database names to filesystem-safe directory names.
var dbName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Options configures a Store. The zero value is usable: FsyncAlways,
// 100ms interval (unused under always), checkpoint every 1024 records.
type Options struct {
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background flush cadence under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery is the number of WAL records after which the
	// background checkpointer folds a database's WAL into a fresh snapshot
	// (default 1024; negative disables automatic checkpoints — Close and
	// explicit Checkpoint calls still write them).
	CheckpointEvery int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	o.FsyncInterval = syncInterval(o.FsyncInterval)
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1024
	}
	return o
}

// Stats is a point-in-time snapshot of the store counters; the service
// exposes them as joind_wal_* / joind_snapshot_* / joind_recovery_* series.
type Stats struct {
	Databases int `json:"databases"`
	// WALAppends and WALBytes count appended records and their on-disk
	// bytes (framing included) since open.
	WALAppends int64 `json:"wal_appends"`
	WALBytes   int64 `json:"wal_bytes"`
	// SnapshotWrites and SnapshotBytes count snapshot files written
	// (creates, checkpoints, and the final checkpoint at Close).
	SnapshotWrites int64 `json:"snapshot_writes"`
	SnapshotBytes  int64 `json:"snapshot_bytes"`
	// Checkpoints counts WAL-folding checkpoints (a subset of
	// SnapshotWrites: creates are not checkpoints).
	Checkpoints int64 `json:"checkpoints"`
	// RecoveredDatabases and ReplayedRecords describe the last Open: how
	// many databases were loaded and how many WAL records were replayed
	// onto their snapshots.
	RecoveredDatabases int   `json:"recovered_databases"`
	ReplayedRecords    int64 `json:"replayed_records"`
	// TornTailBytes is the total bytes dropped from WAL tails at open —
	// evidence of interrupted final appends.
	TornTailBytes int64 `json:"torn_tail_bytes"`
}

// Store is the durable catalog. Construct with Open; all methods are safe
// for concurrent use. Mutations to one database are serialized; mutations
// to different databases proceed in parallel.
type Store struct {
	dir string
	opt Options

	mu     sync.Mutex
	dbs    map[string]*dbState
	views  []ViewDef
	closed bool

	checkpointCh chan *dbState
	quit         chan struct{}
	wg           sync.WaitGroup

	walAppends, walBytes          atomic.Int64
	snapshotWrites, snapshotBytes atomic.Int64
	checkpoints                   atomic.Int64
	replayedRecords               atomic.Int64
	tornTailBytes                 atomic.Int64
	recoveredDatabases            int
}

// dbState is one database's durable state: its WAL, its current in-memory
// catalog (swapped copy-on-write), and its checkpoint bookkeeping.
type dbState struct {
	name string
	dir  string

	// mu serializes the mutation path (WAL append + apply + swap) and
	// checkpoints. Readers never take it: they Load current.
	mu              sync.Mutex
	wal             *wal
	sinceCheckpoint int

	current          atomic.Pointer[relation.Database]
	checkpointQueued atomic.Bool
}

// Open loads (or initializes) a store rooted at dir: every subdirectory
// with a complete snapshot is recovered by loading the snapshot and
// replaying its WAL tail, in order, tolerating a torn final record.
// Subdirectories without a snapshot (a crash before the initial snapshot
// became durable) are ignored — a database exists once its first snapshot
// does. Stale snapshot temp files are removed.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:          dir,
		opt:          opt,
		dbs:          make(map[string]*dbState),
		checkpointCh: make(chan *dbState, 64),
		quit:         make(chan struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dbDir := filepath.Join(dir, name)
		st, err := s.recover(name, dbDir)
		if err != nil {
			return nil, fmt.Errorf("store: recovering %q: %w", name, err)
		}
		if st != nil {
			s.dbs[name] = st
			s.recoveredDatabases++
		}
	}
	defs, err := loadViews(dir)
	if err != nil {
		return nil, err
	}
	s.views = defs
	s.wg.Add(1)
	go s.checkpointLoop()
	if opt.Fsync == FsyncInterval {
		s.wg.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

// recover loads one database directory; nil state (no error) means the
// directory holds no complete database and was skipped.
func (s *Store) recover(name, dbDir string) (*dbState, error) {
	_ = os.Remove(filepath.Join(dbDir, snapshotTemp)) // stale checkpoint attempt
	db, ok, err := loadSnapshot(dbDir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	w, payloads, torn, err := openWAL(filepath.Join(dbDir, walName), s.opt.Fsync)
	if err != nil {
		return nil, err
	}
	s.tornTailBytes.Add(torn)
	for i, payload := range payloads {
		batch, err := decodeBatch(payload)
		if err != nil {
			// Framing was intact (checksummed) but the batch is
			// malformed: that is corruption, not a torn write.
			w.close()
			return nil, fmt.Errorf("wal record %d: %w", i, err)
		}
		next, _, _, err := applyBatch(db, batch)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("wal record %d: %w", i, err)
		}
		db = next
		s.replayedRecords.Add(1)
	}
	w.appends, w.bytes = &s.walAppends, &s.walBytes
	st := &dbState{
		name: name, dir: dbDir, wal: w,
		sinceCheckpoint: len(payloads),
	}
	st.current.Store(db)
	return st, nil
}

// Create adds a new named database: its directory, its initial snapshot
// (the durability point — the database exists once the snapshot is on
// disk), and an empty WAL.
func (s *Store) Create(name string, db *relation.Database) error {
	if !dbName.MatchString(name) {
		return fmt.Errorf("%w: %q (want %s)", ErrBadName, name, dbName)
	}
	if db == nil || db.Len() == 0 {
		return fmt.Errorf("%w: database %q is empty", ErrBadBatch, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.dbs[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	dbDir := filepath.Join(s.dir, name)
	if err := os.Mkdir(dbDir, 0o755); err != nil {
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("%w: directory for %q already exists", ErrExists, name)
		}
		return err
	}
	n, err := writeSnapshot(dbDir, db)
	if err != nil {
		_ = os.RemoveAll(dbDir)
		return err
	}
	s.snapshotWrites.Add(1)
	s.snapshotBytes.Add(n)
	w, err := createWAL(filepath.Join(dbDir, walName), s.opt.Fsync)
	if err != nil {
		_ = os.RemoveAll(dbDir)
		return err
	}
	w.appends, w.bytes = &s.walAppends, &s.walBytes
	st := &dbState{name: name, dir: dbDir, wal: w}
	st.current.Store(db)
	s.dbs[name] = st
	return nil
}

// Current returns the named database's current catalog — an immutable
// snapshot that stays consistent for as long as the caller holds it.
func (s *Store) Current(name string) (*relation.Database, error) {
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return st.current.Load(), nil
}

// Names returns the database names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a name under the store lock.
func (s *Store) lookup(name string) (*dbState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	st, ok := s.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDatabase, name)
	}
	return st, nil
}

// ApplyResult describes one applied batch.
type ApplyResult struct {
	// DB is the post-batch catalog (the new current).
	DB *relation.Database
	// Inserted and Deleted are the effective tuple counts: tuples actually
	// added (absent before) and actually removed (present before).
	Inserted, Deleted int
	// WALBytes is the size of the batch's WAL record, framing included.
	WALBytes int64
}

// Apply durably applies one atomic batch to the named database: the batch
// is validated against the current scheme, appended to the WAL (fsynced per
// the policy), applied copy-on-write, and the new catalog swapped in.
// Concurrent Apply calls on one database serialize; readers holding the old
// catalog keep a consistent pre-batch view. On any error the catalog is
// unchanged and the WAL holds no acknowledged record of the batch.
func (s *Store) Apply(name string, batch Batch) (ApplyResult, error) {
	st, err := s.lookup(name)
	if err != nil {
		return ApplyResult{}, err
	}
	if len(batch) == 0 {
		return ApplyResult{}, fmt.Errorf("%w: empty batch", ErrBadBatch)
	}
	if batch.Tuples() == 0 {
		return ApplyResult{}, fmt.Errorf("%w: batch names no tuples", ErrBadBatch)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.current.Load()
	// Validate fully before logging: a batch that cannot apply must never
	// reach the WAL, or replay would fail where the client saw an error.
	next, ins, del, err := applyBatch(old, batch)
	if err != nil {
		return ApplyResult{}, err
	}
	// The append itself enforces MaxRecordSize: a batch whose encoded
	// payload could not be replayed is rejected (ErrBadBatch) before any
	// byte reaches the log.
	walBytes, err := st.wal.append(appendBatch(nil, batch))
	if err != nil {
		return ApplyResult{}, err
	}
	if err := failpoint.Check(FailpointApply); err != nil {
		failpoint.ExitIf(err)
		// In-process error injection: the record is logged but the swap is
		// refused; a restart will replay it. Report the divergence.
		return ApplyResult{}, fmt.Errorf("store: apply after wal append (batch is logged and will replay on restart): %w", err)
	}
	st.current.Store(next)
	st.sinceCheckpoint++
	if s.opt.CheckpointEvery > 0 && st.sinceCheckpoint >= s.opt.CheckpointEvery {
		s.queueCheckpoint(st)
	}
	return ApplyResult{DB: next, Inserted: ins, Deleted: del, WALBytes: walBytes}, nil
}

// ApplyBatch applies one batch to a catalog copy-on-write, without any
// durability: the sharding layer uses it to keep per-shard partitions in
// step with the durable catalog by replaying routed batches. Semantics
// match Store.Apply's in-memory step exactly (deletes before inserts,
// absent deletes and duplicate inserts are no-ops).
func ApplyBatch(db *relation.Database, batch Batch) (*relation.Database, error) {
	next, _, _, err := applyBatch(db, batch)
	return next, err
}

// applyBatch builds the post-batch catalog copy-on-write: only relations a
// mutation touches are rebuilt; the rest are shared with the old catalog.
// Within one mutation deletes apply before inserts. It returns the new
// catalog and the effective inserted/deleted counts.
func applyBatch(db *relation.Database, batch Batch) (*relation.Database, int, int, error) {
	rels := append([]*relation.Relation(nil), db.Relations()...)
	inserted, deleted := 0, 0
	for i, m := range batch {
		if m.Relation < 0 || m.Relation >= len(rels) {
			return nil, 0, 0, fmt.Errorf("%w: mutation %d relation index %d out of range [0,%d)",
				ErrBadBatch, i, m.Relation, len(rels))
		}
		old := rels[m.Relation]
		schema := old.Schema()
		del := relation.New(schema)
		for _, t := range m.Deletes {
			if err := del.Insert(t); err != nil {
				return nil, 0, 0, fmt.Errorf("%w: mutation %d delete: %v", ErrBadBatch, i, err)
			}
		}
		next := relation.New(schema)
		for _, row := range old.Rows() {
			if del.Contains(row) {
				deleted++
				continue
			}
			next.MustInsert(row)
		}
		before := next.Len()
		for _, t := range m.Inserts {
			if err := next.Insert(t); err != nil {
				return nil, 0, 0, fmt.Errorf("%w: mutation %d insert: %v", ErrBadBatch, i, err)
			}
		}
		inserted += next.Len() - before
		rels[m.Relation] = next
	}
	out, err := relation.NewDatabase(rels...)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, inserted, deleted, nil
}

// queueCheckpoint hands st to the background checkpointer, once.
func (s *Store) queueCheckpoint(st *dbState) {
	if st.checkpointQueued.Swap(true) {
		return
	}
	select {
	case s.checkpointCh <- st:
	default:
		// Channel full: drop the request; the next Apply re-queues.
		st.checkpointQueued.Store(false)
	}
}

// checkpointLoop is the background checkpointer.
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	for {
		select {
		case st := <-s.checkpointCh:
			st.checkpointQueued.Store(false)
			_ = s.checkpoint(st) // failure leaves the WAL intact; retried on the next trigger
		case <-s.quit:
			return
		}
	}
}

// syncLoop flushes dirty WALs on the configured interval (FsyncInterval
// policy only).
func (s *Store) syncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			states := make([]*dbState, 0, len(s.dbs))
			for _, st := range s.dbs {
				states = append(states, st)
			}
			s.mu.Unlock()
			for _, st := range states {
				st.mu.Lock()
				_ = st.wal.sync()
				st.mu.Unlock()
			}
		case <-s.quit:
			return
		}
	}
}

// Checkpoint folds the named database's WAL into a fresh snapshot now.
func (s *Store) Checkpoint(name string) error {
	st, err := s.lookup(name)
	if err != nil {
		return err
	}
	return s.checkpoint(st)
}

// checkpoint writes an atomic snapshot of st's current catalog, then
// truncates the WAL it covers. Ordering is load current → snapshot →
// truncate, all under st.mu, so the snapshot covers exactly the WAL records
// applied so far and the truncate only runs once the snapshot is durable.
func (s *Store) checkpoint(st *dbState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal.empty() && st.sinceCheckpoint == 0 {
		return nil
	}
	n, err := writeSnapshot(st.dir, st.current.Load())
	if err != nil {
		return err
	}
	s.snapshotWrites.Add(1)
	s.snapshotBytes.Add(n)
	if err := st.wal.truncate(); err != nil {
		return err
	}
	st.sinceCheckpoint = 0
	s.checkpoints.Add(1)
	return nil
}

// Close shuts the store down cleanly: the background goroutines stop, every
// database gets a final checkpoint (so a clean shutdown restarts with an
// empty WAL and zero replay), and the WAL files are flushed and closed.
// Further calls on the store return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	states := make([]*dbState, 0, len(s.dbs))
	for _, st := range s.dbs {
		states = append(states, st)
	}
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	var errs []error
	for _, st := range states {
		if err := s.checkpoint(st); err != nil {
			errs = append(errs, fmt.Errorf("%s: final checkpoint: %w", st.name, err))
		}
		st.mu.Lock()
		if err := st.wal.close(); err != nil {
			errs = append(errs, fmt.Errorf("%s: wal close: %w", st.name, err))
		}
		st.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Options returns the effective (defaulted) options.
func (s *Store) Options() Options { return s.opt }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.dbs)
	recovered := s.recoveredDatabases
	s.mu.Unlock()
	return Stats{
		Databases:          n,
		WALAppends:         s.walAppends.Load(),
		WALBytes:           s.walBytes.Load(),
		SnapshotWrites:     s.snapshotWrites.Load(),
		SnapshotBytes:      s.snapshotBytes.Load(),
		Checkpoints:        s.checkpoints.Load(),
		RecoveredDatabases: recovered,
		ReplayedRecords:    s.replayedRecords.Load(),
		TornTailBytes:      s.tornTailBytes.Load(),
	}
}
