package optimizer

import (
	"sort"
	"sync"

	"repro/internal/relation"
)

// Per-relation statistics sketches, maintained incrementally from mutation
// batches (DBSketches.Apply). A Sketch holds one relation's row count and, per
// attribute, the exact value→row-count map; from it the estimators'
// Stats (cardinality + distinct counts) and equi-depth Histograms are
// derived without rescanning the relation. DBSketches bundles one sketch
// per relation of a database.
//
// Delta maintenance is deliberately blind to set semantics: a re-inserted
// tuple or a delete of an absent tuple drifts the counts slightly rather
// than forcing a lookup against the live relation. The drift is tracked
// per sketch, and once it exceeds RebuildFraction of the rows the sketch
// is rebuilt exactly from the relation — the classic stale-statistics /
// auto-analyze tradeoff, made explicit.

// RebuildFraction is the drift threshold: when the tuples applied as
// blind deltas since the last exact build exceed this fraction of the
// relation's rows (and the absolute floor below), the sketch rebuilds.
const RebuildFraction = 0.25

// rebuildFloor avoids rebuilding tiny relations on every batch.
const rebuildFloor = 64

// Sketch summarizes one relation: exact per-attribute value counts in
// column order. It is immutable once built except through Apply; the
// concurrent owner is DBSketches, which copies-on-write around Apply.
type Sketch struct {
	// attrs is the relation's schema in column order, so mutation tuples
	// index it positionally.
	attrs []string
	rows  int64
	// counts[i] maps attribute attrs[i]'s values to their row counts.
	counts []map[relation.Value]int64
	// drift is the number of delta tuples applied blindly since the last
	// exact build; it measures how far the counts may have strayed from
	// the live relation under set semantics.
	drift int64
}

// BuildSketch scans the relation once and builds its exact sketch.
func BuildSketch(r *relation.Relation) *Sketch {
	attrs := r.Schema().Attrs()
	s := &Sketch{
		attrs:  append([]string(nil), attrs...),
		rows:   int64(r.Len()),
		counts: make([]map[relation.Value]int64, len(attrs)),
	}
	for i := range attrs {
		s.counts[i] = make(map[relation.Value]int64, r.Len())
	}
	for _, row := range r.Rows() {
		for i, v := range row {
			s.counts[i][v]++
		}
	}
	return s
}

// Rows returns the (possibly drifted) row count.
func (s *Sketch) Rows() int64 { return s.rows }

// Distinct returns the number of distinct values of attr (0 when the
// attribute is not in the schema).
func (s *Sketch) Distinct(attr string) int64 {
	for i, a := range s.attrs {
		if a == attr {
			return int64(len(s.counts[i]))
		}
	}
	return 0
}

// Stats derives the estimator input: cardinality plus per-attribute
// distinct counts.
func (s *Sketch) Stats() Stats {
	st := Stats{Card: s.rows, Distinct: make(map[string]int64, len(s.attrs))}
	for i, a := range s.attrs {
		st.Distinct[a] = int64(len(s.counts[i]))
	}
	return st
}

// Histogram derives attr's equi-depth histogram from the value counts
// (nil when the attribute is not in the schema or holds no rows). The
// bucketing rule matches BuildHistogram: buckets hold roughly equal row
// counts and a value never straddles a boundary.
func (s *Sketch) Histogram(attr string, buckets int) *Histogram {
	if buckets <= 0 {
		buckets = 32
	}
	col := -1
	for i, a := range s.attrs {
		if a == attr {
			col = i
			break
		}
	}
	if col < 0 {
		return nil
	}
	type vc struct {
		v relation.Value
		n int64
	}
	vals := make([]vc, 0, len(s.counts[col]))
	var total int64
	for v, n := range s.counts[col] {
		if n > 0 {
			vals = append(vals, vc{v, n})
			total += n
		}
	}
	h := &Histogram{}
	if total == 0 {
		return h
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v.Compare(vals[j].v) < 0 })
	per := (total + int64(buckets) - 1) / int64(buckets)
	var rows, distinct int64
	for i, x := range vals {
		rows += x.n
		distinct++
		if rows >= per || i == len(vals)-1 {
			h.Bounds = append(h.Bounds, x.v)
			h.Rows = append(h.Rows, rows)
			h.Distinct = append(h.Distinct, distinct)
			rows, distinct = 0, 0
		}
	}
	return h
}

// clone deep-copies the sketch (copy-on-write support for DBSketches).
func (s *Sketch) clone() *Sketch {
	out := &Sketch{
		attrs:  s.attrs,
		rows:   s.rows,
		counts: make([]map[relation.Value]int64, len(s.counts)),
		drift:  s.drift,
	}
	for i, m := range s.counts {
		c := make(map[relation.Value]int64, len(m))
		for v, n := range m {
			c[v] = n
		}
		out.counts[i] = c
	}
	return out
}

// apply folds one mutation's deletes and inserts into the counts,
// blindly (no set-semantics check against the live relation) and clamped
// at zero. It returns the number of delta tuples applied, which is also
// added to the drift.
func (s *Sketch) apply(inserts, deletes []relation.Tuple) int64 {
	for _, t := range deletes {
		for i, v := range t {
			if i >= len(s.counts) {
				break
			}
			if c := s.counts[i][v]; c <= 1 {
				delete(s.counts[i], v)
			} else {
				s.counts[i][v] = c - 1
			}
		}
		if s.rows > 0 {
			s.rows--
		}
	}
	for _, t := range inserts {
		for i, v := range t {
			if i >= len(s.counts) {
				break
			}
			s.counts[i][v]++
		}
		s.rows++
	}
	n := int64(len(inserts) + len(deletes))
	s.drift += n
	return n
}

// needsRebuild reports whether the accumulated drift warrants an exact
// rebuild from the live relation.
func (s *Sketch) needsRebuild() bool {
	if s.drift == 0 {
		return false
	}
	threshold := int64(RebuildFraction * float64(s.rows))
	if threshold < rebuildFloor {
		threshold = rebuildFloor
	}
	return s.drift >= threshold
}

// DBSketches is a database's sketch set, safe for concurrent use:
// readers take an immutable snapshot, the mutation
// path clones-and-swaps the sketches it touches (copy-on-write, the same
// discipline the catalog itself uses).
type DBSketches struct {
	mu       sync.RWMutex
	sketches []*Sketch
}

// CollectSketches builds the sketch set for a database.
func CollectSketches(db *relation.Database) *DBSketches {
	d := &DBSketches{sketches: make([]*Sketch, db.Len())}
	for i := 0; i < db.Len(); i++ {
		d.sketches[i] = BuildSketch(db.Relation(i))
	}
	return d
}

// Snapshot returns the current sketch slice. The slice and the sketches
// are immutable: Apply swaps in clones, so a snapshot stays consistent
// for as long as the caller holds it.
func (d *DBSketches) Snapshot() []*Sketch {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.sketches
}

// Stats derives the estimator inputs for every relation from the current
// snapshot.
func (d *DBSketches) Stats() []Stats {
	sks := d.Snapshot()
	out := make([]Stats, len(sks))
	for i, s := range sks {
		out[i] = s.Stats()
	}
	return out
}

// Apply folds one mutation into relation rel's sketch: deletes then
// inserts, blind and clamped, with an exact rebuild from current when the
// accumulated drift crosses the threshold. It returns the delta tuples
// applied and whether a rebuild happened.
func (d *DBSketches) Apply(rel int, inserts, deletes []relation.Tuple, current *relation.Relation) (delta int64, rebuilt bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rel < 0 || rel >= len(d.sketches) {
		return 0, false
	}
	next := d.sketches[rel].clone()
	delta = next.apply(inserts, deletes)
	if next.needsRebuild() && current != nil {
		next = BuildSketch(current)
		rebuilt = true
	}
	// Swap a fresh slice so concurrent Snapshot holders keep their view.
	sks := append([]*Sketch(nil), d.sketches...)
	sks[rel] = next
	d.sketches = sks
	return delta, rebuilt
}
