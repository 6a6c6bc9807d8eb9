package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// View definitions are durable service state: a registered continuous query
// (see internal/ivm) must survive a restart, because its whole value is
// staying maintained across the catalog's lifetime. The definitions live in
// one views.dat file at the store root — a framed record (same framing as
// the WAL, its own magic) whose payload is the JSON definition list —
// written atomically with the snapshot protocol (temp file, fsync, rename,
// directory fsync). Definitions are tiny and change only on view
// registration/drop, so rewriting the whole file per change is the simple
// correct choice: views.dat is always either the previous complete list or
// the new complete list.
//
// The materialized view state itself is NOT persisted: it is derivable, and
// the serving layer rebuilds each view from the recovered catalog (snapshot
// + WAL replay) when it re-registers the definitions at startup.

const (
	viewsName  = "views.dat"
	viewsTemp  = "views.tmp"
	viewsMagic = "JDVWS\x00\x00\x01"
)

// ViewDef is one registered continuous query's durable definition. The
// maintained state is rebuilt from the catalog at recovery; only the
// registration itself persists.
type ViewDef struct {
	// ID is the view's unique name.
	ID string `json:"id"`
	// Database is the catalog name the view joins.
	Database string `json:"database"`
}

// SaveViews atomically replaces the durable view-definition list.
func (s *Store) SaveViews(defs []ViewDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	payload, err := json.Marshal(defs)
	if err != nil {
		return fmt.Errorf("store: encoding view definitions: %w", err)
	}
	frame := appendRecord(make([]byte, 0, len(viewsMagic)+recordHeaderSize+len(payload)), payload)
	tmp := filepath.Join(s.dir, viewsTemp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(viewsMagic)); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, viewsName)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.views = append([]ViewDef(nil), defs...)
	return nil
}

// Views returns the recovered (or last saved) view definitions.
func (s *Store) Views() []ViewDef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ViewDef(nil), s.views...)
}

// loadViews reads dir's views.dat. A missing file means no views; any
// corruption is a hard error — the atomic write protocol means the file
// cannot be torn, so damage is real.
func loadViews(dir string) ([]ViewDef, error) {
	_ = os.Remove(filepath.Join(dir, viewsTemp)) // stale save attempt
	raw, err := os.ReadFile(filepath.Join(dir, viewsName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < len(viewsMagic) || string(raw[:len(viewsMagic)]) != viewsMagic {
		return nil, fmt.Errorf("%w: %s is not a view-definition file (or is a different format version)", ErrBadMagic, viewsName)
	}
	payload, n, err := readRecordLimit(raw[len(viewsMagic):], maxFramePayload)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", viewsName, err)
	}
	if len(viewsMagic)+n != len(raw) {
		return nil, fmt.Errorf("%w: %d trailing bytes after view-definition record", ErrCorrupt, len(raw)-len(viewsMagic)-n)
	}
	var defs []ViewDef
	if err := json.Unmarshal(payload, &defs); err != nil {
		return nil, fmt.Errorf("store: %s: %w", viewsName, err)
	}
	return defs, nil
}
