package optimizer

import (
	"sort"
	"sync"

	"repro/internal/relation"
)

// Per-relation statistics sketches, maintained incrementally on the
// mutation path. A Sketch holds one relation's row count and, per
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

// Drift returns the delta tuples applied since the last exact build.
func (s *Sketch) Drift() int64 { return s.drift }

// Attrs returns the schema attributes in column order.
func (s *Sketch) Attrs() []string { return s.attrs }

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

// MaxDegree returns the row count of attr's most frequent value — the
// heavy hitter the uniformity assumption cannot see.
func (s *Sketch) MaxDegree(attr string) int64 {
	for i, a := range s.attrs {
		if a != attr {
			continue
		}
		var max int64
		for _, c := range s.counts[i] {
			if c > max {
				max = c
			}
		}
		return max
	}
	return 0
}

// Skew returns the relation's worst per-attribute skew ratio: the heavy
// hitter's degree over the mean degree (rows/distinct). 1 means uniform;
// large values mean a few values dominate and independence-assumption
// estimates of joins through this relation are badly low.
func (s *Sketch) Skew() float64 {
	worst := 1.0
	for i := range s.attrs {
		d := int64(len(s.counts[i]))
		if d == 0 || s.rows == 0 {
			continue
		}
		var max int64
		for _, c := range s.counts[i] {
			if c > max {
				max = c
			}
		}
		mean := float64(s.rows) / float64(d)
		if mean <= 0 {
			continue
		}
		if ratio := float64(max) / mean; ratio > worst {
			worst = ratio
		}
	}
	return worst
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
// discipline the catalog itself uses). It also accumulates the
// estimation feedback loop: observed actual-vs-estimated cost ratios per
// scheme fingerprint, folded back into future estimates as a
// multiplicative correction.
type DBSketches struct {
	mu       sync.RWMutex
	sketches []*Sketch
	// driftTotal accumulates, per relation, every delta tuple ever applied
	// blindly — it keeps counting across rebuilds (which reset the
	// per-sketch drift), so it is the monotone series behind the
	// joind_optimizer_drift_total metric.
	driftTotal []int64
	rebuilds   int64
	// feedback maps a scheme fingerprint to the EWMA of actual/estimated
	// §2.3 cost ratios observed for plans executed over that scheme.
	feedback map[string]float64
}

// feedbackAlpha is the EWMA weight of the newest observation.
const feedbackAlpha = 0.3

// CollectSketches builds the sketch set for a database.
func CollectSketches(db *relation.Database) *DBSketches {
	d := &DBSketches{
		sketches:   make([]*Sketch, db.Len()),
		driftTotal: make([]int64, db.Len()),
		feedback:   make(map[string]float64),
	}
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
	d.driftTotal[rel] += delta
	if next.needsRebuild() && current != nil {
		next = BuildSketch(current)
		d.rebuilds++
		rebuilt = true
	}
	// Swap a fresh slice so concurrent Snapshot holders keep their view.
	sks := append([]*Sketch(nil), d.sketches...)
	sks[rel] = next
	d.sketches = sks
	return delta, rebuilt
}

// DriftTotals returns the cumulative per-relation delta tuples applied
// (monotone across rebuilds).
func (d *DBSketches) DriftTotals() []int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]int64(nil), d.driftTotal...)
}

// Rebuilds returns how many drift-triggered exact rebuilds have run.
func (d *DBSketches) Rebuilds() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rebuilds
}

// Observe records one executed plan's actual §2.3 cost against its
// estimate, returning the q-error max(est/act, act/est) and folding the
// ratio into the fingerprint's correction EWMA so served traffic tightens
// future estimates.
func (d *DBSketches) Observe(fingerprint string, estimated, actual int64) float64 {
	if estimated <= 0 || actual <= 0 {
		return 0
	}
	ratio := float64(actual) / float64(estimated)
	d.mu.Lock()
	if prev, ok := d.feedback[fingerprint]; ok {
		d.feedback[fingerprint] = (1-feedbackAlpha)*prev + feedbackAlpha*ratio
	} else {
		d.feedback[fingerprint] = ratio
	}
	d.mu.Unlock()
	if ratio < 1 {
		return 1 / ratio
	}
	return ratio
}

// Correction returns the multiplicative correction learned for the
// fingerprint (1 when nothing has been observed yet). Estimates of
// generated tuples are scaled by it, so a scheme whose plans keep
// producing more than estimated drifts the chooser toward the
// conservative routes.
func (d *DBSketches) Correction(fingerprint string) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if c, ok := d.feedback[fingerprint]; ok && c > 0 {
		return c
	}
	return 1
}
