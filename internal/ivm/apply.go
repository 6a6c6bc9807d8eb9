package ivm

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/relation"
)

// Change is one base relation's inserts and deletes within a batch, in the
// same shape as the store's mutations: Relation indexes the database in its
// registration order, and deletes apply before inserts.
type Change struct {
	Relation int
	Inserts  []relation.Tuple
	Deletes  []relation.Tuple
}

// BatchStats describes one applied delta batch.
type BatchStats struct {
	// TuplesIn is the effective input delta: tuples whose base-relation
	// membership actually changed (no-op re-inserts and absent deletes are
	// dropped before propagation).
	TuplesIn int64
	// TuplesOut is the size of the delta applied to the view's output —
	// how much the result itself changed.
	TuplesOut int64
	// StepRows is the total delta rows emitted across all steps (the work
	// the governor charged).
	StepRows int64
	// ReducerSkips counts semijoin steps that received a nonempty reducer
	// delta provably unable to flip any key's support — the Safe-Subjoins
	// condition — and therefore skipped re-reducing their left operand.
	ReducerSkips int64
}

// Apply propagates one batch of base-relation changes through the delta
// program, updating every node's counted state. Changes apply in order
// (later changes to the same relation see earlier ones), and the governor —
// which may be nil — charges every emitted delta row, with one scope per
// step. When the governor carries a span (govern.SetSpan), each executed
// step gets a child span.
//
// On any error the view's materialized state is undefined — part of the
// batch may be applied — and the caller must Rebuild before trusting
// Result again. The serving layer rebuilds from the post-batch catalog
// rather than failing the ingest.
func (v *View) Apply(changes []Change, g *govern.Governor) (BatchStats, error) {
	var stats BatchStats
	deltas := make([]*delta, len(v.nodes))
	// Effective input deltas: membership against the current state with the
	// batch's earlier changes folded in. Input states are sets (every count
	// is 1), so each delta row is ±1.
	for _, ch := range changes {
		if ch.Relation < 0 || ch.Relation >= len(v.inputOf) {
			return stats, fmt.Errorf("ivm: change relation index %d out of range [0,%d)", ch.Relation, len(v.inputOf))
		}
		in := v.inputs[v.inputOf[ch.Relation]]
		d := deltas[in.id]
		if d == nil {
			d = newDelta(in.schema)
			deltas[in.id] = d
		}
		for _, t := range ch.Deletes {
			if len(t) != in.schema.Len() {
				return stats, fmt.Errorf("ivm: delete arity %d does not match schema %s", len(t), in.schema)
			}
			key := rowKey(t)
			if memberWithDelta(in, d, key) {
				d.addKeyed(key, t, -1)
			}
		}
		for _, t := range ch.Inserts {
			if len(t) != in.schema.Len() {
				return stats, fmt.Errorf("ivm: insert arity %d does not match schema %s", len(t), in.schema)
			}
			key := rowKey(t)
			if !memberWithDelta(in, d, key) {
				d.addKeyed(key, t, 1)
			}
		}
	}
	for _, in := range v.inputs {
		d := deltas[in.id]
		if d.isEmpty() {
			continue
		}
		stats.TuplesIn += int64(len(d.rows))
		if err := applyDelta(in, d); err != nil {
			return stats, err
		}
	}
	if stats.TuplesIn == 0 {
		return stats, nil
	}

	span := g.Span()
	for _, s := range v.steps {
		d1, d2 := deltas[s.arg1.id], (*delta)(nil)
		if s.arg2 != nil {
			d2 = deltas[s.arg2.id]
		}
		if d1.isEmpty() && d2.isEmpty() {
			continue
		}
		var stepSpan *obs.Span
		if span != nil {
			stepSpan = span.Child(obs.KindStmt, "Δ "+s.label)
		}
		dz, err := v.runStep(s, d1, d2, g, &stats, stepSpan)
		if err == nil {
			err = applyDelta(s.out, dz)
		}
		if err != nil {
			if stepSpan != nil {
				stepSpan.Note("failed: %v", err)
				stepSpan.End()
			}
			return stats, fmt.Errorf("ivm: step (%s): %w", s.label, err)
		}
		if stepSpan != nil {
			stepSpan.AddTuples(int64(len(dz.rows)))
			stepSpan.End()
		}
		deltas[s.out.id] = dz
	}
	if d := deltas[v.out.id]; !d.isEmpty() {
		stats.TuplesOut = int64(len(d.rows))
	}
	return stats, nil
}

// memberWithDelta reports the key's membership in the input node once the
// pending delta is folded in.
func memberWithDelta(in *node, d *delta, key string) bool {
	n := int64(0)
	if in.rows[key] != nil {
		n = 1
	}
	if r := d.rows[key]; r != nil {
		n += r.n
	}
	return n > 0
}

// applyDelta folds a step's output delta into its node.
func applyDelta(nd *node, d *delta) error {
	if d.isEmpty() {
		return nil
	}
	for key, r := range d.rows {
		if err := nd.apply(key, r.t, r.n); err != nil {
			return err
		}
	}
	return nil
}

// runStep dispatches one step's delta rule.
func (v *View) runStep(s *step, d1, d2 *delta, g *govern.Governor, stats *BatchStats, span *obs.Span) (*delta, error) {
	switch s.op {
	case program.OpProject:
		scope, err := g.Begin("ivm.Project")
		if err != nil {
			return nil, err
		}
		return projectDelta(s, d1, scope, stats)
	case program.OpJoin:
		scope, err := g.Begin("ivm.Join")
		if err != nil {
			return nil, err
		}
		return joinDelta(s, d1, d2, scope, stats)
	case program.OpSemijoin:
		scope, err := g.Begin("ivm.Semijoin")
		if err != nil {
			return nil, err
		}
		return semijoinDelta(s, d1, d2, scope, stats, span)
	default:
		return nil, fmt.Errorf("unknown operator %v", s.op)
	}
}

// projectDelta is Δπ(X) = π(ΔX): projection is linear, counts sum.
func projectDelta(s *step, d1 *delta, scope *govern.OpScope, stats *BatchStats) (*delta, error) {
	dz := newDelta(s.out.schema)
	if d1.isEmpty() {
		return dz, nil
	}
	m := scope.Meter()
	for _, dx := range d1.rows {
		row := make(relation.Tuple, len(s.projPos))
		for i, p := range s.projPos {
			row[i] = dx.t[p]
		}
		dz.add(row, dx.n)
		stats.StepRows++
		if err := m.Add(1); err != nil {
			return nil, err
		}
	}
	return dz, m.Close()
}

// joinDelta is the distributive rule against post-batch operand states:
// ΔZ = ΔX ⋈ Y' + X' ⋈ ΔY − ΔX ⋈ ΔY. Both operands' states already
// include their deltas when the step runs (inputs are updated before
// propagation, earlier steps' outputs as they execute), which is why the
// pair term subtracts: it is counted once in each of the first two terms.
// Counts multiply, as joint derivation counts do.
func joinDelta(s *step, d1, d2 *delta, scope *govern.OpScope, stats *BatchStats) (*delta, error) {
	dz := newDelta(s.out.schema)
	m := scope.Meter()
	emit := func(lt, rt relation.Tuple, n int64) error {
		row := make(relation.Tuple, 0, len(lt)+len(s.only2))
		row = append(row, lt...)
		for _, p := range s.only2 {
			row = append(row, rt[p])
		}
		dz.add(row, n)
		stats.StepRows++
		return m.Add(1)
	}
	if !d1.isEmpty() {
		for _, dx := range d1.rows {
			for _, y := range s.idx2.buckets[groupKey(dx.t, s.pos1)] {
				if err := emit(dx.t, y.t, dx.n*y.n); err != nil {
					return nil, err
				}
			}
		}
	}
	if !d2.isEmpty() {
		for _, dy := range d2.rows {
			for _, x := range s.idx1.buckets[groupKey(dy.t, s.pos2)] {
				if err := emit(x.t, dy.t, x.n*dy.n); err != nil {
					return nil, err
				}
			}
		}
	}
	if !d1.isEmpty() && !d2.isEmpty() {
		// The pair correction, hashing the smaller delta.
		if len(d1.rows) <= len(d2.rows) {
			ht := make(map[string][]*drow, len(d1.rows))
			for _, dx := range d1.rows {
				gk := groupKey(dx.t, s.pos1)
				ht[gk] = append(ht[gk], dx)
			}
			for _, dy := range d2.rows {
				for _, dx := range ht[groupKey(dy.t, s.pos2)] {
					if err := emit(dx.t, dy.t, -dx.n*dy.n); err != nil {
						return nil, err
					}
				}
			}
		} else {
			ht := make(map[string][]*drow, len(d2.rows))
			for _, dy := range d2.rows {
				gk := groupKey(dy.t, s.pos2)
				ht[gk] = append(ht[gk], dy)
			}
			for _, dx := range d1.rows {
				for _, dy := range ht[groupKey(dx.t, s.pos1)] {
					if err := emit(dx.t, dy.t, -dx.n*dy.n); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return dz, m.Close()
}

// semijoinDelta differentiates Z = X ⋉ Y with Z(t) = X(t)·s(k(t)), where s
// is the 0/1 support indicator of Y projected onto the common attributes.
// With X', Y' the post-batch states,
//
//	ΔZ(t) = X'(t)·(s'(k) − s(k)) + ΔX(t)·s(k)
//
// so only two groups of tuples can change: the ΔX tuples (scaled by the
// pre-batch support, recovered from the maintained bucket totals minus the
// reducer delta's key totals), and the X' tuples of keys whose support
// flipped. The flipped-key set derives from ΔY alone; when it is empty the
// reducer delta provably cannot unreduce (or newly reduce) any left tuple —
// the Safe-Subjoins condition — and the X' scan is skipped entirely.
func semijoinDelta(s *step, d1, d2 *delta, scope *govern.OpScope, stats *BatchStats, span *obs.Span) (*delta, error) {
	dz := newDelta(s.out.schema)
	var dyTot map[string]int64
	if !d2.isEmpty() {
		dyTot = make(map[string]int64, len(d2.rows))
		for _, dy := range d2.rows {
			dyTot[groupKey(dy.t, s.pos2)] += dy.n
		}
	}
	// Keys whose support flipped, with the flip direction s'(k) − s(k).
	var flipped map[string]int64
	for gk, dn := range dyTot {
		tot := s.idx2.totals[gk] // Y' total; 0 when the bucket vanished
		sNew, sOld := tot > 0, tot-dn > 0
		if sNew != sOld {
			if flipped == nil {
				flipped = make(map[string]int64)
			}
			if sNew {
				flipped[gk] = 1
			} else {
				flipped[gk] = -1
			}
		}
	}
	if len(dyTot) > 0 && len(flipped) == 0 {
		stats.ReducerSkips++
		if span != nil {
			span.Note("safe subjoin: reducer delta flips no key; left operand not re-reduced")
		}
	}
	m := scope.Meter()
	if !d1.isEmpty() {
		for key, dx := range d1.rows {
			gk := groupKey(dx.t, s.pos1)
			if s.idx2.totals[gk]-dyTot[gk] > 0 { // pre-batch support
				dz.addKeyed(key, dx.t, dx.n)
				stats.StepRows++
				if err := m.Add(1); err != nil {
					return nil, err
				}
			}
		}
	}
	for gk, sign := range flipped {
		for key, x := range s.idx1.buckets[gk] {
			dz.addKeyed(key, x.t, sign*x.n)
			stats.StepRows++
			if err := m.Add(1); err != nil {
				return nil, err
			}
		}
	}
	return dz, m.Close()
}

// Rebuild discards every node's state and reloads the view from db — the
// full current catalog, in the registration order the view was compiled
// for. It is the recovery path after a failed Apply, and
// the initial build at registration (applying the whole catalog as one
// all-inserts batch through the same delta rules that maintain it).
func (v *View) Rebuild(db *relation.Database) error {
	if db == nil {
		return fmt.Errorf("ivm: rebuild database is nil")
	}
	if db.Len() != len(v.inputOf) {
		return fmt.Errorf("ivm: rebuild database has %d relations, view has %d", db.Len(), len(v.inputOf))
	}
	for _, nd := range v.nodes {
		nd.reset()
	}
	changes := make([]Change, db.Len())
	for i := 0; i < db.Len(); i++ {
		changes[i] = Change{Relation: i, Inserts: db.Relation(i).Rows()}
	}
	_, err := v.Apply(changes, nil)
	if err != nil {
		return fmt.Errorf("ivm: rebuild: %w", err)
	}
	return nil
}
