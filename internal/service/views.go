package service

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/govern"
	"repro/internal/ivm"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// Continuous queries. A registered view is ⋈D over one catalog database,
// compiled once (internal/ivm) into a delta program and maintained
// incrementally: every acknowledged ingest batch is propagated through the
// view's join/semijoin/project steps — under the catalog entry's ingest
// mutex, so views see batches in exactly WAL order — before the batch is
// acknowledged to the client. Queries against the view are then O(result):
// GET /v1/views/{id} serves the materialized result without running a join.
//
// Maintenance never fails an ingest. A view whose delta work blows its
// configured budget aborts with govern.ErrViewBudget, is marked stale, and
// is rebuilt synchronously from the post-batch catalog; if even the rebuild
// fails the view stays stale (result unavailable) until a later batch's
// rebuild succeeds. With a durable store attached, view definitions persist
// in the store (views.dat) and AttachStore re-registers and rebuilds them
// from the recovered catalog.

// Typed view errors; match with errors.Is.
var (
	// ErrUnknownView reports an operation on an unregistered view id.
	ErrUnknownView = errors.New("service: unknown view")
	// ErrDuplicateView reports a RegisterView with an already-taken id.
	ErrDuplicateView = errors.New("service: view already registered")
	// ErrViewStale reports a result read from a view whose rebuild after a
	// maintenance failure has not yet succeeded. Serve it as HTTP 503.
	ErrViewStale = errors.New("service: view is stale (rebuild pending)")
)

// viewID constrains view ids like store database names.
var viewID = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// viewEntry is one registered view: its durable definition, its compiled
// delta program with materialized state, and its maintenance counters. The
// entry's own mutex serializes maintenance against result reads; the ingest
// path additionally holds the catalog entry's ingestMu, which is what
// orders delta batches by WAL position.
type viewEntry struct {
	def store.ViewDef

	mu    sync.Mutex
	view  *ivm.View
	stale bool
	// lastError is the most recent maintenance or rebuild failure ("" when
	// healthy).
	lastError string

	deltaBatches, tuplesIn, tuplesOut, stepRows int64
	reducerSkips, rebuilds, budgetAborts        int64
}

// ViewInfo describes one registered view and its maintenance counters.
type ViewInfo struct {
	ID          string `json:"id"`
	Database    string `json:"database"`
	Fingerprint string `json:"fingerprint"`
	// Steps is the delta program's statement count, split by operator below.
	Steps     int `json:"steps"`
	Projects  int `json:"projects"`
	Joins     int `json:"joins"`
	Semijoins int `json:"semijoins"`
	// ResultCount is the materialized result's current cardinality.
	ResultCount int `json:"result_count"`
	// Stale reports that maintenance failed and the rebuild has not
	// succeeded yet; the result is unavailable until it does.
	Stale                 bool  `json:"stale"`
	MaxTuples             int64 `json:"max_tuples,omitempty"`
	MaxIntermediateTuples int64 `json:"max_intermediate_tuples,omitempty"`
	// DeltaBatches counts maintenance runs; TuplesIn/TuplesOut/StepRows are
	// the cumulative effective input delta, result delta, and per-step delta
	// rows across them.
	DeltaBatches int64 `json:"delta_batches"`
	TuplesIn     int64 `json:"delta_tuples_in"`
	TuplesOut    int64 `json:"delta_tuples_out"`
	StepRows     int64 `json:"delta_step_rows"`
	// ReducerSkips counts semijoin steps skipped under the Safe-Subjoins
	// condition (reducer delta provably flips no key's support).
	ReducerSkips int64 `json:"reducer_skips"`
	// Rebuilds counts full from-catalog rebuilds (registration and recovery
	// included); BudgetAborts counts maintenance runs that exhausted the
	// view's budget and triggered one.
	Rebuilds     int64  `json:"full_rebuilds"`
	BudgetAborts int64  `json:"budget_aborts"`
	LastError    string `json:"last_error,omitempty"`
}

// info renders the entry under its lock.
func (ve *viewEntry) info() ViewInfo {
	ve.mu.Lock()
	defer ve.mu.Unlock()
	return ve.infoLocked()
}

func (ve *viewEntry) infoLocked() ViewInfo {
	projects, joins, semijoins := ve.view.OpCounts()
	return ViewInfo{
		ID:                    ve.def.ID,
		Database:              ve.def.Database,
		Fingerprint:           ve.view.Fingerprint(),
		Steps:                 ve.view.Steps(),
		Projects:              projects,
		Joins:                 joins,
		Semijoins:             semijoins,
		ResultCount:           ve.view.ResultCount(),
		Stale:                 ve.stale,
		MaxTuples:             ve.def.MaxTuples,
		MaxIntermediateTuples: ve.def.MaxIntermediateTuples,
		DeltaBatches:          ve.deltaBatches,
		TuplesIn:              ve.tuplesIn,
		TuplesOut:             ve.tuplesOut,
		StepRows:              ve.stepRows,
		ReducerSkips:          ve.reducerSkips,
		Rebuilds:              ve.rebuilds,
		BudgetAborts:          ve.budgetAborts,
		LastError:             ve.lastError,
	}
}

// RegisterView registers a continuous query over the named database and
// builds its initial materialized result. The build runs under the
// database's ingest mutex, so the view starts at an exact batch boundary and
// misses no subsequent delta. With a store attached the definition is made
// durable before RegisterView returns.
func (s *Service) RegisterView(def store.ViewDef) (ViewInfo, error) {
	if !viewID.MatchString(def.ID) {
		return ViewInfo{}, fmt.Errorf("%w: invalid view id %q (want %s)", ErrBadRequest, def.ID, viewID)
	}
	if err := checkBudgets(def.MaxTuples, def.MaxIntermediateTuples); err != nil {
		return ViewInfo{}, err
	}
	e, err := s.lookup(def.Database)
	if err != nil {
		return ViewInfo{}, err
	}
	s.mu.RLock()
	_, dup := s.views[def.ID]
	s.mu.RUnlock()
	if dup {
		return ViewInfo{}, fmt.Errorf("%w: %q", ErrDuplicateView, def.ID)
	}
	// Holding ingestMu across compile + build + registration pins the batch
	// boundary: no ingest can land between the catalog load and the view
	// becoming visible to the maintenance hook.
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	db := e.db.Load()
	v, err := ivm.Compile(db)
	if err != nil {
		return ViewInfo{}, fmt.Errorf("service: compiling view %q: %w", def.ID, err)
	}
	if err := v.Rebuild(db); err != nil {
		return ViewInfo{}, fmt.Errorf("service: building view %q: %w", def.ID, err)
	}
	ve := &viewEntry{def: def, view: v, rebuilds: 1}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.views[def.ID]; dup {
		return ViewInfo{}, fmt.Errorf("%w: %q", ErrDuplicateView, def.ID)
	}
	s.views[def.ID] = ve
	if st := s.store.Load(); st != nil {
		if err := st.SaveViews(s.viewDefsLocked()); err != nil {
			delete(s.views, def.ID)
			return ViewInfo{}, fmt.Errorf("service: persisting view %q: %w", def.ID, mapStoreError(err))
		}
	}
	s.viewRebuilds.Add(1)
	return ve.info(), nil
}

// DropView removes a registered view (and its durable definition).
func (s *Service) DropView(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.views[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownView, id)
	}
	delete(s.views, id)
	if st := s.store.Load(); st != nil {
		if err := st.SaveViews(s.viewDefsLocked()); err != nil {
			return fmt.Errorf("service: persisting view drop %q: %w", id, mapStoreError(err))
		}
	}
	return nil
}

// viewDefsLocked snapshots the definition list (caller holds s.mu), sorted
// by id so views.dat is deterministic.
func (s *Service) viewDefsLocked() []store.ViewDef {
	defs := make([]store.ViewDef, 0, len(s.views))
	for _, ve := range s.views {
		defs = append(defs, ve.def)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
	return defs
}

// Views lists the registered views in id order.
func (s *Service) Views() []ViewInfo {
	s.mu.RLock()
	entries := make([]*viewEntry, 0, len(s.views))
	for _, ve := range s.views {
		entries = append(entries, ve)
	}
	s.mu.RUnlock()
	out := make([]ViewInfo, 0, len(entries))
	for _, ve := range entries {
		out = append(out, ve.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// lookupView resolves a view id.
func (s *Service) lookupView(id string) (*viewEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ve, ok := s.views[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownView, id)
	}
	return ve, nil
}

// View returns one view's info without its result.
func (s *Service) View(id string) (ViewInfo, error) {
	ve, err := s.lookupView(id)
	if err != nil {
		return ViewInfo{}, err
	}
	return ve.info(), nil
}

// ViewResult returns one view's info and materialized result. A stale view
// (failed maintenance whose rebuild has not succeeded) refuses the read with
// ErrViewStale rather than serving a result known to be wrong.
func (s *Service) ViewResult(id string) (ViewInfo, *relation.Relation, error) {
	ve, err := s.lookupView(id)
	if err != nil {
		return ViewInfo{}, nil, err
	}
	ve.mu.Lock()
	defer ve.mu.Unlock()
	if ve.stale {
		return ve.infoLocked(), nil, fmt.Errorf("%w: %q: %s", ErrViewStale, id, ve.lastError)
	}
	return ve.infoLocked(), ve.view.Result(), nil
}

// maintainViews propagates one acknowledged ingest batch into every view
// over the database and returns how many views it maintained. The caller
// holds the catalog entry's ingestMu, so batches reach each view in WAL
// order; post is the post-batch catalog the stale-recovery path rebuilds
// from. Maintenance never fails the ingest.
func (s *Service) maintainViews(database string, batch store.Batch, post *relation.Database) int {
	s.mu.RLock()
	var entries []*viewEntry
	for _, ve := range s.views {
		if ve.def.Database == database {
			entries = append(entries, ve)
		}
	}
	s.mu.RUnlock()
	if len(entries) == 0 {
		return 0
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].def.ID < entries[j].def.ID })
	changes := make([]ivm.Change, len(batch))
	for i, m := range batch {
		changes[i] = ivm.Change{Relation: m.Relation, Inserts: m.Inserts, Deletes: m.Deletes}
	}
	for _, ve := range entries {
		s.maintainView(ve, changes, post)
	}
	return len(entries)
}

// maintainView applies one delta batch to one view, with the view's budget
// governed and — when the service runs a tracer — a span tree whose children
// are the executed delta steps. A budget abort surfaces as
// govern.ErrViewBudget on the entry, marks it stale, and rebuilds from the
// post-batch catalog; only a failed rebuild leaves it stale.
func (s *Service) maintainView(ve *viewEntry, changes []ivm.Change, post *relation.Database) {
	start := time.Now()
	ve.mu.Lock()
	defer ve.mu.Unlock()
	var trace *obs.Trace
	if s.cfg.Tracer != nil {
		trace = s.cfg.Tracer.StartQuery("view:" + ve.def.ID)
	}
	lim := govern.Limits{
		MaxTuples:             ve.def.MaxTuples,
		MaxIntermediateTuples: ve.def.MaxIntermediateTuples,
	}
	var g *govern.Governor
	if lim.Enabled() || trace != nil {
		g = govern.New(lim)
		if trace != nil {
			g.SetSpan(trace.Root)
		}
	}
	stats, err := ve.view.Apply(changes, g)
	ve.deltaBatches++
	ve.tuplesIn += stats.TuplesIn
	ve.tuplesOut += stats.TuplesOut
	ve.stepRows += stats.StepRows
	ve.reducerSkips += stats.ReducerSkips
	s.viewDeltaBatches.Add(1)
	s.viewTuplesIn.Add(stats.TuplesIn)
	s.viewTuplesOut.Add(stats.TuplesOut)
	s.viewReducerSkips.Add(stats.ReducerSkips)
	if err != nil {
		if errors.Is(err, govern.ErrTupleBudget) {
			err = fmt.Errorf("%w: %w", govern.ErrViewBudget, err)
			ve.budgetAborts++
			s.viewBudgetAborts.Add(1)
		}
		ve.stale = true
		ve.lastError = err.Error()
		if trace != nil {
			trace.Root.Note("maintenance failed, rebuilding: %v", err)
		}
		if rerr := ve.view.Rebuild(post); rerr != nil {
			ve.lastError = fmt.Sprintf("%v (rebuild failed: %v)", err, rerr)
		} else {
			ve.stale = false
			ve.lastError = err.Error()
			ve.rebuilds++
			s.viewRebuilds.Add(1)
		}
	} else {
		ve.lastError = ""
	}
	if trace != nil {
		trace.Root.End()
		s.cfg.Tracer.FinishQuery(trace)
	}
	s.metrics.viewMaintenance.Observe(time.Since(start).Seconds())
}

// attachViews re-registers the store's durable view definitions at startup,
// rebuilding each from the recovered catalog. Called by AttachStore after
// the databases are registered; definitions naming unknown databases are a
// hard error (the store never drops databases, so this is corruption).
func (s *Service) attachViews(st *store.Store) error {
	for _, def := range st.Views() {
		e, err := s.lookup(def.Database)
		if err != nil {
			return fmt.Errorf("service: recovering view %q: %w", def.ID, err)
		}
		db := e.db.Load()
		v, err := ivm.Compile(db)
		if err != nil {
			return fmt.Errorf("service: recovering view %q: %w", def.ID, err)
		}
		if err := v.Rebuild(db); err != nil {
			return fmt.Errorf("service: recovering view %q: %w", def.ID, err)
		}
		ve := &viewEntry{def: def, view: v, rebuilds: 1}
		s.viewRebuilds.Add(1)
		s.mu.Lock()
		if _, dup := s.views[def.ID]; dup {
			s.mu.Unlock()
			return fmt.Errorf("%w: %q (recovered twice)", ErrDuplicateView, def.ID)
		}
		s.views[def.ID] = ve
		s.mu.Unlock()
	}
	return nil
}

// staleViews counts views currently stale (metrics).
func (s *Service) staleViews() int {
	s.mu.RLock()
	entries := make([]*viewEntry, 0, len(s.views))
	for _, ve := range s.views {
		entries = append(entries, ve)
	}
	s.mu.RUnlock()
	n := 0
	for _, ve := range entries {
		ve.mu.Lock()
		if ve.stale {
			n++
		}
		ve.mu.Unlock()
	}
	return n
}
