package optimizer

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/relation"
)

func randomRelation(t *testing.T, rng *rand.Rand, attrs []string, size, domain int) *relation.Relation {
	t.Helper()
	r := relation.New(relation.MustSchema(attrs...))
	for i := 0; i < size; i++ {
		tup := make(relation.Tuple, len(attrs))
		for j := range tup {
			tup[j] = relation.Int(int64(rng.Intn(domain)))
		}
		_ = r.Insert(tup)
	}
	return r
}

// distinct returns the number of distinct values of the sketch's column i.
func (s *Sketch) distinct(i int) int64 { return int64(len(s.counts[i])) }

// histogram buckets attr's value counts the way BuildHistogram buckets a
// scan: buckets hold roughly equal row counts and a value never straddles a
// boundary.
func (s *Sketch) histogram(attr string, buckets int) *Histogram {
	col := slices.Index(s.attrs, attr)
	type vc struct {
		v relation.Value
		n int64
	}
	var vals []vc
	var total int64
	for v, n := range s.counts[col] {
		if n > 0 {
			vals = append(vals, vc{v, n})
			total += n
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v.Compare(vals[j].v) < 0 })
	h := &Histogram{}
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

// TestBuildSketchMatchesCollectStats: the sketch's row count and distinct
// counts must equal a fresh scan's Stats.
func TestBuildSketchMatchesCollectStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r := randomRelation(t, rng, []string{"A", "B"}, 1+rng.Intn(200), 1+rng.Intn(20))
		s := BuildSketch(r)
		want := CollectStats(r)
		if s.rows != want.Card {
			t.Fatalf("trial %d: rows %d, want Card %d", trial, s.rows, want.Card)
		}
		for i, a := range s.attrs {
			if got := s.distinct(i); got != want.Distinct[a] {
				t.Fatalf("trial %d: Distinct[%s] %d, want %d", trial, a, got, want.Distinct[a])
			}
		}
	}
}

// TestSketchHistogramMatchesBuildHistogram: the histogram bucketed from the
// sketch's value counts must equal the one built from a relation scan —
// same greedy value-boundary bucketing — so the counts carry everything a
// histogram needs.
func TestSketchHistogramMatchesBuildHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		r := randomRelation(t, rng, []string{"A", "B"}, 1+rng.Intn(300), 1+rng.Intn(30))
		s := BuildSketch(r)
		buckets := 1 + rng.Intn(12)
		for _, a := range []string{"A", "B"} {
			want, err := BuildHistogram(r, a, buckets)
			if err != nil {
				t.Fatal(err)
			}
			got := s.histogram(a, buckets)
			if len(got.Bounds) != len(want.Bounds) {
				t.Fatalf("trial %d attr %s: %d buckets, want %d", trial, a, len(got.Bounds), len(want.Bounds))
			}
			for i := range want.Bounds {
				if !got.Bounds[i].Equal(want.Bounds[i]) || got.Rows[i] != want.Rows[i] || got.Distinct[i] != want.Distinct[i] {
					t.Fatalf("trial %d attr %s bucket %d: got (%v,%d,%d), want (%v,%d,%d)",
						trial, a, i, got.Bounds[i], got.Rows[i], got.Distinct[i],
						want.Bounds[i], want.Rows[i], want.Distinct[i])
				}
			}
		}
	}
}

// TestSketchApplyTracksMutations: set-respecting deltas keep the sketch
// exactly equal to a fresh build of the mutated relation; blind deletes of
// absent tuples clamp instead of going negative.
func TestSketchApplyTracksMutations(t *testing.T) {
	r := relation.New(relation.MustSchema("A", "B"))
	r.MustInsert(relation.Ints(1, 10))
	r.MustInsert(relation.Ints(2, 10))
	r.MustInsert(relation.Ints(3, 11))
	s := BuildSketch(r)

	s.apply([]relation.Tuple{relation.Ints(4, 12)}, []relation.Tuple{relation.Ints(1, 10)})
	r2 := relation.New(relation.MustSchema("A", "B"))
	r2.MustInsert(relation.Ints(2, 10))
	r2.MustInsert(relation.Ints(3, 11))
	r2.MustInsert(relation.Ints(4, 12))
	want := BuildSketch(r2)
	if s.rows != want.rows {
		t.Fatalf("rows %d, want %d", s.rows, want.rows)
	}
	for i, a := range []string{"A", "B"} {
		if s.distinct(i) != want.distinct(i) {
			t.Fatalf("Distinct[%s] = %d, want %d", a, s.distinct(i), want.distinct(i))
		}
		if !maps.Equal(s.counts[i], want.counts[i]) {
			t.Fatalf("value counts[%s] = %v, want %v", a, s.counts[i], want.counts[i])
		}
	}
	if s.drift != 2 {
		t.Fatalf("drift = %d, want 2", s.drift)
	}

	// Blind deletes of absent tuples clamp at zero.
	for i := 0; i < 10; i++ {
		s.apply(nil, []relation.Tuple{relation.Ints(99, 99)})
	}
	if s.rows < 0 {
		t.Fatalf("rows went negative: %d", s.rows)
	}
}

// TestDBSketchesDriftTriggersRebuild: once blind deltas cross the
// threshold, Apply rebuilds exactly from the live relation and the drift
// resets.
func TestDBSketchesDriftTriggersRebuild(t *testing.T) {
	r := relation.New(relation.MustSchema("A", "B"))
	for i := 0; i < 10; i++ {
		r.MustInsert(relation.Ints(int64(i), int64(i%3)))
	}
	db, err := relation.NewDatabase(r)
	if err != nil {
		t.Fatal(err)
	}
	d := CollectSketches(db)
	live := r.Clone()
	rebuilt := false
	var applied int64
	for i := 0; i < 100 && !rebuilt; i++ {
		tup := relation.Ints(int64(100+i), int64(i%5))
		live.MustInsert(tup)
		var delta int64
		delta, rebuilt = d.Apply(0, []relation.Tuple{tup}, nil, live)
		applied += delta
	}
	if !rebuilt {
		t.Fatal("100 single-tuple deltas never triggered a rebuild")
	}
	if applied < rebuildFloor {
		t.Fatalf("rebuilt after %d deltas, below the floor %d", applied, rebuildFloor)
	}
	sk := d.sketches[0]
	if sk.drift != 0 {
		t.Fatalf("post-rebuild drift = %d, want 0", sk.drift)
	}
	if sk.rows != int64(live.Len()) {
		t.Fatalf("post-rebuild rows = %d, live relation has %d", sk.rows, live.Len())
	}
}

// TestDBSketchesConcurrent hammers Apply against readers of the sketch
// slice and every sketch's counts — the copy-on-write discipline under the
// race detector.
func TestDBSketchesConcurrent(t *testing.T) {
	r := relation.New(relation.MustSchema("A", "B"))
	for i := 0; i < 50; i++ {
		r.MustInsert(relation.Ints(int64(i), int64(i%7)))
	}
	db, err := relation.NewDatabase(r)
	if err != nil {
		t.Fatal(err)
	}
	d := CollectSketches(db)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Apply(0, []relation.Tuple{relation.Ints(int64(1000*w+i), 1)}, nil, r)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.mu.Lock()
				sks := d.sketches
				d.mu.Unlock()
				for _, s := range sks {
					for i := range s.attrs {
						_ = s.distinct(i)
					}
					_ = s.histogram("A", 8)
				}
			}
		}()
	}
	wg.Wait()
}
