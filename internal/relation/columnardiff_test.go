package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/govern"
)

// Differential tests for the columnar batch kernels: JoinBlocksGoverned,
// ParallelSemijoinBlocksGoverned, and ProjectBlocksGoverned must be extensionally
// indistinguishable from the tuple-map operators — same result set, same
// governed tuple totals, same budget-abort boundary — over the full schema
// overlap spectrum (schemePairs, including the disjoint Cartesian pair).
// The tuple-map operators are the oracle; these tests are what lets every
// query run on the kernels while the charges a budget sees stay the
// tuple-map operators'.

// schemePairs is the schema overlap spectrum the join/semijoin properties
// sample: partial overlap, containment, identity, single shared attribute,
// and disjoint (the Cartesian-product path).
var schemePairs = [][2]string{
	{"ABC", "BCD"},
	{"AB", "ABC"},
	{"ABC", "ABC"},
	{"AB", "BC"},
	{"A", "AB"},
	{"AB", "CD"},
}

// workerSweep is the worker counts the range-split properties are checked
// at: one range, even and odd range counts, and the host width.
func workerSweep() []int {
	sweep := []int{1, 2, 3, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		sweep = append(sweep, p)
	}
	return sweep
}

// roundTrip encodes, validates, and returns the block for r, failing the
// test on any invariant violation.
func roundTrip(t *testing.T, r *Relation) *ColBlock {
	t.Helper()
	b := FromRelation(r)
	if err := b.Validate(); err != nil {
		t.Fatalf("FromRelation(%s) invalid: %v", r.Schema(), err)
	}
	return b
}

func TestColumnarJoinMatchesJoinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 300; trial++ {
		pair := schemePairs[rng.Intn(len(schemePairs))]
		l := randRel(rng, pair[0], rng.Intn(40), 3)
		r := randRel(rng, pair[1], rng.Intn(40), 3)
		want := Join(l, r)
		out, err := JoinBlocksGoverned(nil, roundTrip(t, l), roundTrip(t, r))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("trial %d (%s ⋈ %s): output block invalid: %v", trial, pair[0], pair[1], err)
		}
		if got := out.ToRelation(); !got.Equal(want) {
			t.Fatalf("trial %d (%s ⋈ %s): columnar join %d tuples, sequential %d",
				trial, pair[0], pair[1], got.Len(), want.Len())
		}
	}
}

func TestColumnarSemijoinMatchesSemijoinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 300; trial++ {
		pair := schemePairs[rng.Intn(len(schemePairs))]
		l := randRel(rng, pair[0], rng.Intn(40), 3)
		r := randRel(rng, pair[1], rng.Intn(40), 3)
		want := Semijoin(l, r)
		out, err := ParallelSemijoinBlocksGoverned(nil, roundTrip(t, l), roundTrip(t, r), 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("trial %d (%s ⋉ %s): output block invalid: %v", trial, pair[0], pair[1], err)
		}
		if got := out.ToRelation(); !got.Equal(want) {
			t.Fatalf("trial %d (%s ⋉ %s): columnar semijoin %d tuples, sequential %d",
				trial, pair[0], pair[1], got.Len(), want.Len())
		}
	}
}

func TestColumnarProjectMatchesProjectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	schemes := []string{"ABCD", "AB", "A"}
	for trial := 0; trial < 300; trial++ {
		scheme := schemes[rng.Intn(len(schemes))]
		r := randRel(rng, scheme, rng.Intn(60), 2) // tiny domain: many duplicates
		var attrs AttrSet
		for _, a := range r.Schema().Attrs() {
			if rng.Intn(2) == 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			attrs = AttrSet{r.Schema().Attrs()[0]}
		}
		want, err := Project(r, attrs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		out, err := ProjectBlocksGoverned(nil, roundTrip(t, r), attrs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("trial %d (π_%v %s): output block invalid: %v", trial, attrs, scheme, err)
		}
		if got := out.ToRelation(); !got.Equal(want) {
			t.Fatalf("trial %d (π_%v %s): columnar project %d tuples, sequential %d",
				trial, attrs, scheme, got.Len(), want.Len())
		}
	}
}

// TestColumnarGovernedChargesSequentialTotals is the charging-equivalence
// property: on success each columnar kernel charges exactly the tuple total
// its tuple-map counterpart does, under the same operator name — budgets,
// fair-share carving, and §2.3 cost accounting cannot tell them apart.
func TestColumnarGovernedChargesSequentialTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < 150; trial++ {
		pair := schemePairs[rng.Intn(len(schemePairs))]
		l := randRel(rng, pair[0], 1+rng.Intn(30), 3)
		r := randRel(rng, pair[1], 1+rng.Intn(30), 3)

		seqG := govern.New(govern.Limits{MaxTuples: 1 << 40})
		seqOut, err := JoinGoverned(seqG, l, r)
		if err != nil {
			t.Fatalf("trial %d sequential join: %v", trial, err)
		}
		colG := govern.New(govern.Limits{MaxTuples: 1 << 40})
		colOut, err := JoinBlocksGoverned(colG, roundTrip(t, l), roundTrip(t, r))
		if err != nil {
			t.Fatalf("trial %d columnar join: %v", trial, err)
		}
		if !colOut.ToRelation().Equal(seqOut) {
			t.Fatalf("trial %d: join results differ", trial)
		}
		if colG.Produced() != seqG.Produced() {
			t.Fatalf("trial %d: columnar join charged %d tuples, sequential %d",
				trial, colG.Produced(), seqG.Produced())
		}

		seqG = govern.New(govern.Limits{MaxTuples: 1 << 40})
		seqSemi, err := SemijoinGoverned(seqG, l, r)
		if err != nil {
			t.Fatalf("trial %d sequential semijoin: %v", trial, err)
		}
		colG = govern.New(govern.Limits{MaxTuples: 1 << 40})
		colSemi, err := ParallelSemijoinBlocksGoverned(colG, roundTrip(t, l), roundTrip(t, r), 1)
		if err != nil {
			t.Fatalf("trial %d columnar semijoin: %v", trial, err)
		}
		if !colSemi.ToRelation().Equal(seqSemi) {
			t.Fatalf("trial %d: semijoin results differ", trial)
		}
		if colG.Produced() != seqG.Produced() {
			t.Fatalf("trial %d: columnar semijoin charged %d tuples, sequential %d",
				trial, colG.Produced(), seqG.Produced())
		}
	}
}

// TestColumnarGovernedBudgetAbortsCoincide checks the abort boundary per
// kernel: a budget of exactly the sequential output size succeeds, one
// tuple less aborts with govern.ErrTupleBudget and no partial result —
// the same boundary the tuple-map operator aborts at.
func TestColumnarGovernedBudgetAbortsCoincide(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	tried := 0
	for trial := 0; tried < 60; trial++ {
		if trial > 2000 {
			t.Fatal("could not generate enough joins with nonempty output")
		}
		l := randRel(rng, "ABC", 5+rng.Intn(25), 3)
		r := randRel(rng, "BCD", 5+rng.Intn(25), 3)
		total := int64(Join(l, r).Len())
		if total == 0 {
			continue
		}
		tried++
		lb, rb := roundTrip(t, l), roundTrip(t, r)
		okG := govern.New(govern.Limits{MaxTuples: total, CheckEvery: 1})
		if out, err := JoinBlocksGoverned(okG, lb, rb); err != nil || out.Len() != int(total) {
			t.Fatalf("trial %d: budget == output must succeed, got %v", trial, err)
		}
		abortG := govern.New(govern.Limits{MaxTuples: total - 1, CheckEvery: 1})
		out, err := JoinBlocksGoverned(abortG, lb, rb)
		if !errors.Is(err, govern.ErrTupleBudget) {
			t.Fatalf("trial %d: budget == output-1 must abort with ErrTupleBudget, got %v", trial, err)
		}
		if out != nil {
			t.Fatalf("trial %d: abort leaked a partial result (%d tuples)", trial, out.Len())
		}
	}
}

// sameRows reports whether two blocks hold the same rows in the same order.
func sameRows(a, b *ColBlock) bool {
	if a.Len() != b.Len() || !slices.Equal(a.Schema().Attrs(), b.Schema().Attrs()) {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for c := 0; c < a.Schema().Len(); c++ {
			if !a.Value(i, c).Equal(b.Value(i, c)) {
				return false
			}
		}
	}
	return true
}

// TestParallelBlockKernelsMatchSingleRange is the range-split contract: at
// every worker count the join and semijoin kernels return the single-range
// run's rows in its order, charge its total, and abort on its budget — over
// the overlap spectrum plus a three-column key (the byte-string tables).
func TestParallelBlockKernelsMatchSingleRange(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(2029))
	pairs := append([][2]string{{"ABCD", "ABCE"}}, schemePairs...)
	kernels := map[string]func(*govern.Governor, *ColBlock, *ColBlock, int) (*ColBlock, error){
		"join":     ParallelJoinBlocksGoverned,
		"semijoin": ParallelSemijoinBlocksGoverned,
	}
	for trial := 0; trial < 200; trial++ {
		pair := pairs[trial%len(pairs)]
		l := roundTrip(t, randRel(rng, pair[0], rng.Intn(60), 3))
		r := roundTrip(t, randRel(rng, pair[1], rng.Intn(60), 3))
		for name, kernel := range kernels {
			seqG := govern.New(govern.Limits{MaxTuples: 1 << 40})
			want, err := kernel(seqG, l, r, 1)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			total := seqG.Produced()
			for _, w := range []int{2, 3, 8} {
				g := govern.New(govern.Limits{MaxTuples: 1 << 40})
				got, err := kernel(g, l, r, w)
				if err != nil {
					t.Fatalf("trial %d %s, %d workers: %v", trial, name, w, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("trial %d %s, %d workers: %v", trial, name, w, err)
				}
				if !sameRows(got, want) || g.Produced() != total {
					t.Fatalf("trial %d (%s %s %s), %d workers: %d rows charged %d, single range %d rows charged %d (or row order differs)",
						trial, pair[0], name, pair[1], w, got.Len(), g.Produced(), want.Len(), total)
				}
				if total < 2 {
					continue // a budget of 0 means unlimited
				}
				if _, err := kernel(govern.New(govern.Limits{MaxTuples: total}), l, r, w); err != nil {
					t.Fatalf("trial %d %s, %d workers: budget == total must pass, got %v", trial, name, w, err)
				}
				out, err := kernel(govern.New(govern.Limits{MaxTuples: total - 1}), l, r, w)
				if out != nil || !errors.Is(err, govern.ErrTupleBudget) {
					t.Fatalf("trial %d %s, %d workers: budget == total-1 gave %v, %v; want ErrTupleBudget", trial, name, w, out, err)
				}
			}
		}
	}
}

// The range-split kernels against the tuple-map oracle directly, at every
// worker count (threshold forced to 0 unless a test is about the default).

// parallelJoin is the range-split block join decoded back to tuples.
func parallelJoin(t *testing.T, g *govern.Governor, l, r *Relation, workers int) (*Relation, error) {
	t.Helper()
	out, err := ParallelJoinBlocksGoverned(g, l.Block(), r.Block(), workers)
	if err != nil {
		return nil, err
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("%d workers: output block invalid: %v", workers, err)
	}
	return out.ToRelation(), nil
}

func TestParallelJoinMatchesJoinRandom(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(1992))
	for trial := 0; trial < 200; trial++ {
		pair := schemePairs[rng.Intn(len(schemePairs))]
		l := randRel(rng, pair[0], rng.Intn(40), 3)
		r := randRel(rng, pair[1], rng.Intn(40), 3)
		want := Join(l, r)
		for _, w := range workerSweep() {
			if got, err := parallelJoin(t, nil, l, r, w); err != nil || !got.Equal(want) {
				t.Fatalf("trial %d (%s ⋈ %s, %d workers): block join %v, %v; tuple-map %d tuples",
					trial, pair[0], pair[1], w, got, err, want.Len())
			}
		}
	}
}

func TestParallelSemijoinMatchesSemijoinRandom(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(1993))
	for trial := 0; trial < 200; trial++ {
		pair := schemePairs[rng.Intn(len(schemePairs))]
		l := randRel(rng, pair[0], rng.Intn(40), 3)
		r := randRel(rng, pair[1], rng.Intn(40), 3)
		want := Semijoin(l, r)
		for _, w := range workerSweep() {
			out, err := ParallelSemijoinBlocksGoverned(nil, l.Block(), r.Block(), w)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got := out.ToRelation(); !got.Equal(want) {
				t.Fatalf("trial %d (%s ⋉ %s, %d workers): block semijoin %d tuples, tuple-map %d",
					trial, pair[0], pair[1], w, got.Len(), want.Len())
			}
		}
	}
}

// TestParallelProjectMatchesProjectRandom: projection consumes the blocks
// the range-split kernels emit — rows stitched from several ranges, many of
// them duplicates on the kept columns — and must still dedupe to exactly
// the tuple-map Project at every worker count. r ⋉ r = r, so the semijoin
// only re-cuts r into ranges.
func TestParallelProjectMatchesProjectRandom(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(1994))
	schemes := []string{"ABCD", "AB", "A"}
	for trial := 0; trial < 200; trial++ {
		scheme := schemes[rng.Intn(len(schemes))]
		r := randRel(rng, scheme, rng.Intn(60), 2) // tiny domain: many duplicates
		// Random nonempty attribute subset.
		var attrs AttrSet
		for _, a := range r.Schema().Attrs() {
			if rng.Intn(2) == 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			attrs = AttrSet{r.Schema().Attrs()[0]}
		}
		want, err := Project(r, attrs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range workerSweep() {
			split, err := ParallelSemijoinBlocksGoverned(nil, r.Block(), r.Block(), w)
			if err != nil {
				t.Fatalf("trial %d, %d workers: %v", trial, w, err)
			}
			out, err := ProjectBlocksGoverned(nil, split, attrs)
			if err != nil {
				t.Fatalf("trial %d, %d workers: %v", trial, w, err)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("trial %d (π_%v %s, %d workers): output block invalid: %v", trial, attrs, scheme, w, err)
			}
			if got := out.ToRelation(); !got.Equal(want) {
				t.Fatalf("trial %d (π_%v %s, %d workers): block project %d tuples, tuple-map %d",
					trial, attrs, scheme, w, got.Len(), want.Len())
			}
		}
	}
}

// TestParallelGovernedChargesSequentialTotals: at every worker count the
// range-split join charges exactly the tuple-map join's total.
func TestParallelGovernedChargesSequentialTotals(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(1995))
	for trial := 0; trial < 100; trial++ {
		pair := schemePairs[rng.Intn(len(schemePairs))]
		l := randRel(rng, pair[0], 1+rng.Intn(30), 3)
		r := randRel(rng, pair[1], 1+rng.Intn(30), 3)
		seqG := govern.New(govern.Limits{MaxTuples: 1 << 40})
		want, err := JoinGoverned(seqG, l, r)
		if err != nil {
			t.Fatalf("trial %d tuple-map: %v", trial, err)
		}
		for _, w := range workerSweep() {
			g := govern.New(govern.Limits{MaxTuples: 1 << 40})
			got, err := parallelJoin(t, g, l, r, w)
			if err != nil || !got.Equal(want) || g.Produced() != seqG.Produced() {
				t.Fatalf("trial %d, %d workers: charged %d (err %v), tuple-map %d (or results differ)",
					trial, w, g.Produced(), err, seqG.Produced())
			}
		}
	}
}

// TestParallelGovernedBudgetAbortsCoincide: a budget of exactly the
// tuple-map join's output passes at every worker count, and one tuple less
// aborts with govern.ErrTupleBudget and no partial result.
func TestParallelGovernedBudgetAbortsCoincide(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(1996))
	tried := 0
	for trial := 0; tried < 50; trial++ {
		if trial > 2000 {
			t.Fatal("could not generate enough joins with nonempty output")
		}
		l := randRel(rng, "ABC", 5+rng.Intn(25), 3)
		r := randRel(rng, "BCD", 5+rng.Intn(25), 3)
		total := int64(Join(l, r).Len())
		if total == 0 {
			continue
		}
		tried++
		for _, w := range workerSweep() {
			if out, err := parallelJoin(t, govern.New(govern.Limits{MaxTuples: total, CheckEvery: 1}), l, r, w); err != nil || out.Len() != int(total) {
				t.Fatalf("trial %d, %d workers: budget == output must succeed, got %v", trial, w, err)
			}
			out, err := parallelJoin(t, govern.New(govern.Limits{MaxTuples: total - 1, CheckEvery: 1}), l, r, w)
			if out != nil || !errors.Is(err, govern.ErrTupleBudget) {
				t.Fatalf("trial %d, %d workers: budget == output-1 gave %v, %v; want ErrTupleBudget", trial, w, out, err)
			}
		}
	}
}

// TestParallelJoinEdgeCases: empty sides, self joins, and more ranges than
// rows, at every worker count.
func TestParallelJoinEdgeCases(t *testing.T) {
	defer SetParallelThreshold(0)()
	empty := New(SchemaOfRunes("AB"))
	one := mkRel(t, "BC", []int64{1, 2})
	small := mkRel(t, "AB", []int64{1, 2}, []int64{3, 4})
	other := mkRel(t, "BC", []int64{2, 5}, []int64{4, 6})
	for _, w := range append(workerSweep(), 16) {
		for _, c := range []struct {
			name string
			l, r *Relation
		}{{"empty ⋈ r", empty, one}, {"l ⋈ empty", one, empty}, {"r ⋈ r", one, one}, {"2 rows", small, other}} {
			if got, err := parallelJoin(t, nil, c.l, c.r, w); err != nil || !got.Equal(Join(c.l, c.r)) {
				t.Fatalf("%s with %d workers: got %v, %v", c.name, w, got, err)
			}
		}
	}
}

// TestParallelJoinMatchesSequential crosses the default parallel threshold
// with real sizes (no override): the range split must equal the tuple-map
// join at every worker count, 0 meaning GOMAXPROCS.
func TestParallelJoinMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	l := randRel(rng, "ABC", 6000, 40)
	r := randRel(rng, "BCD", 6000, 40)
	want := Join(l, r)
	for _, w := range []int{0, 1, 2, 3, 8} {
		if got, err := parallelJoin(t, nil, l, r, w); err != nil || !got.Equal(want) {
			t.Fatalf("workers=%d: block join disagrees (%v, want %d tuples)", w, err, want.Len())
		}
	}
}

// TestParallelJoinSmallFallsBack: below the default threshold the kernel
// probes as one range however many workers are asked for.
func TestParallelJoinSmallFallsBack(t *testing.T) {
	got, err := parallelJoin(t, nil, mkRel(t, "AB", []int64{1, 2}), mkRel(t, "BC", []int64{2, 3}), 8)
	if err != nil || got.Len() != 1 {
		t.Errorf("got %v, %v; want one tuple", got, err)
	}
}

// TestParallelJoinCrossProduct: disjoint schemas split the left side into
// ranges, each producing its share of the Cartesian product.
func TestParallelJoinCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	l := randRel(rng, "AB", 3000, 10000) // near-distinct rows
	r := randRel(rng, "CD", 3, 10)
	if got, err := parallelJoin(t, nil, l, r, 4); err != nil || !got.Equal(Join(l, r)) {
		t.Fatalf("range-split product disagrees: %v", err)
	}
}

func TestParallelJoinEmptySide(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	l := randRel(rng, "AB", 5000, 20)
	if got, err := parallelJoin(t, nil, l, New(SchemaOfRunes("BC")), 4); err != nil || got.Len() != 0 {
		t.Errorf("join with empty side = %v, %v", got, err)
	}
}

// TestParallelJoinResultUsable: the decoded result of a range-split join
// behaves like any relation — membership, dedup on insert, further ops.
func TestParallelJoinResultUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	out, err := parallelJoin(t, nil, randRel(rng, "AB", 5000, 30), randRel(rng, "BC", 5000, 30), 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Skip("degenerate draw")
	}
	first := out.Rows()[0]
	if !out.Contains(first) {
		t.Error("Contains broken on decoded result")
	}
	before := out.Len()
	out.MustInsert(first) // duplicate: must be ignored
	if out.Len() != before {
		t.Error("dedup index not built on decoded result")
	}
	if p := MustProject(out, NewAttrSet("A", "C")); p.Len() == 0 {
		t.Error("projection of decoded result empty")
	}
}

// TestColumnarJoinEdgeCases pins the degenerate inputs: empty sides, self
// joins, identical schemas, and the pure Cartesian path.
func TestColumnarJoinEdgeCases(t *testing.T) {
	join := func(l, r *Relation) *Relation {
		out, err := JoinBlocksGoverned(nil, roundTrip(t, l), roundTrip(t, r))
		if err != nil {
			t.Fatal(err)
		}
		return out.ToRelation()
	}
	empty := New(SchemaOfRunes("AB"))
	one := mkRel(t, "BC", []int64{1, 2})
	if got := join(empty, one); got.Len() != 0 {
		t.Fatalf("empty ⋈ r: got %d tuples", got.Len())
	}
	if got := join(one, empty); got.Len() != 0 {
		t.Fatalf("l ⋈ empty: got %d tuples", got.Len())
	}
	if got := join(one, one); !got.Equal(one) {
		t.Fatal("r ⋈ r: want r itself")
	}
	// Pure Cartesian product: disjoint schemas.
	a := mkRel(t, "AB", []int64{1, 2}, []int64{3, 4})
	b := mkRel(t, "CD", []int64{5, 6}, []int64{7, 8})
	if got, want := join(a, b), Join(a, b); !got.Equal(want) {
		t.Fatalf("Cartesian: columnar %d tuples, sequential %d", got.Len(), want.Len())
	}
	// Degenerate semijoin against an empty right side with no common attrs.
	semi, err := ParallelSemijoinBlocksGoverned(nil, roundTrip(t, a), roundTrip(t, New(SchemaOfRunes("CD"))), 1)
	if err != nil {
		t.Fatal(err)
	}
	if semi.Len() != 0 {
		t.Fatalf("l ⋉ empty-disjoint: got %d tuples, want 0", semi.Len())
	}
}

// TestColumnarStringValues exercises the mixed int/string dictionary order:
// dictionaries sort all ints before all strings, and joins across blocks
// whose dictionaries disagree on codes must still match on values.
func TestColumnarStringValues(t *testing.T) {
	l := New(SchemaOfRunes("AB"))
	l.MustInsert(Tuple{String("x"), Int(1)})
	l.MustInsert(Tuple{Int(7), String("y")})
	l.MustInsert(Tuple{String("a"), String("y")})
	r := New(SchemaOfRunes("BC"))
	r.MustInsert(Tuple{Int(1), String("q")})
	r.MustInsert(Tuple{String("y"), Int(3)})
	r.MustInsert(Tuple{String("z"), Int(4)})
	want := Join(l, r)
	out, err := JoinBlocksGoverned(nil, roundTrip(t, l), roundTrip(t, r))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.ToRelation(); !got.Equal(want) {
		t.Fatalf("mixed-type join: columnar %d tuples, sequential %d", got.Len(), want.Len())
	}
}

// shapePairs are the schemes the table-shape tests sweep: one, two and three
// key columns, then the disjoint (Cartesian) pair.
var shapePairs = [][2]string{{"AB", "BC"}, {"ABC", "BCD"}, {"ABCD", "BCDE"}, {"AB", "CD"}}

// cutBlock returns the rows of b whose first column equals row 0's, cut by
// the semijoin kernel so the result keeps b's full dictionaries: a block
// with a non-minimal dictionary, as every kernel output has. An empty b is
// returned as is.
func cutBlock(b *ColBlock) *ColBlock {
	if b.Len() == 0 {
		return b
	}
	key := New(MustSchema(b.Schema().Attrs()[0]))
	key.MustInsert(Tuple{b.Value(0, 0)})
	out, err := ParallelSemijoinBlocksGoverned(nil, b, FromRelation(key), 1)
	if err != nil {
		panic(err) // unreachable: a nil governor never aborts
	}
	return out
}

// sameRowsAs reports whether block b holds r's rows in r's order over the
// same column order.
func sameRowsAs(b *ColBlock, r *Relation) bool {
	if b.Len() != r.Len() || !slices.Equal(b.Schema().Attrs(), r.Schema().Attrs()) {
		return false
	}
	for i, row := range r.Rows() {
		for c, v := range row {
			if !b.Value(i, c).Equal(v) {
				return false
			}
		}
	}
	return true
}

// checkKernelAgainstTupleMap runs kernel on (l, r) at the given worker
// counts (1, 2 and 4 when none are given) and the tuple-map oracle on the
// decoded blocks: the kernel must return the oracle's rows in the oracle's
// order and charge its total, and on a budget one tuple short it must abort
// with ErrTupleBudget — on one range at the very charge the oracle aborts
// at.
func checkKernelAgainstTupleMap(t *testing.T, name string, l, r *ColBlock,
	kernel func(*govern.Governor, *ColBlock, *ColBlock, int) (*ColBlock, error),
	oracle func(*govern.Governor, *Relation, *Relation) (*Relation, error), workers ...int) {
	t.Helper()
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	lt, rt := l.ToRelation(), r.ToRelation()
	g := govern.New(govern.Limits{MaxTuples: 1 << 40})
	want, err := oracle(g, lt, rt)
	if err != nil {
		t.Fatalf("%s oracle: %v", name, err)
	}
	total := g.Produced()
	var abortAt int64
	if total >= 2 { // a budget of 0 means unlimited
		ag := govern.New(govern.Limits{MaxTuples: total - 1, CheckEvery: 1})
		if _, err := oracle(ag, lt, rt); !errors.Is(err, govern.ErrTupleBudget) {
			t.Fatalf("%s oracle under budget %d: %v", name, total-1, err)
		}
		abortAt = ag.Produced()
	}
	for _, w := range workers {
		kg := govern.New(govern.Limits{MaxTuples: 1 << 40})
		got, err := kernel(kg, l, r, w)
		if err != nil {
			t.Fatalf("%s, %d workers: %v", name, w, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s, %d workers: %v", name, w, err)
		}
		if !sameRowsAs(got, want) || kg.Produced() != total {
			t.Fatalf("%s, %d workers: %d rows charged %d, tuple-map %d rows charged %d (or row order differs)",
				name, w, got.Len(), kg.Produced(), want.Len(), total)
		}
		if total < 2 {
			continue
		}
		ag := govern.New(govern.Limits{MaxTuples: total - 1, CheckEvery: 1})
		out, err := kernel(ag, l, r, w)
		if out != nil || !errors.Is(err, govern.ErrTupleBudget) {
			t.Fatalf("%s, %d workers: budget %d gave %v, %v; want ErrTupleBudget", name, w, total-1, out, err)
		}
		if w == 1 && ag.Produced() != abortAt {
			t.Fatalf("%s: aborted at charge %d, tuple-map at %d", name, ag.Produced(), abortAt)
		}
	}
}

// TestKernelTableShapesMatchTupleMapOps drives the join, semijoin and
// projection kernels through both table shapes — the direct-addressed
// arrays and the packed and wide maps — with one, two and three key
// columns, minimal and non-minimal dictionaries (blocks cut from semijoin
// outputs), empty sides, and probe codes with no image in the build
// dictionary, at workers 1, 2 and 4 with the range split forced on. Rows,
// row order, Produced and the abort charge must match the tuple-map
// operators, and every (key columns, shape) pair must be reached.
func TestKernelTableShapesMatchTupleMapOps(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(2041))
	block := func(scheme string, domain int) *ColBlock {
		if rng.Intn(2) == 0 {
			return FromRelation(randRel(rng, scheme, rng.Intn(50), domain))
		}
		return cutBlock(FromRelation(randRel(rng, scheme, 400, domain)))
	}
	type shape struct {
		keys   int
		direct bool
	}
	reached := map[shape]bool{}
	for trial := 0; trial < 400; trial++ {
		pair := shapePairs[trial%len(shapePairs)]
		domain := []int{2, 6, 40, 1000}[rng.Intn(4)]
		l, r := block(pair[0], domain), block(pair[1], domain)
		name := fmt.Sprintf("trial %d (%s ⋈ %s, %d×%d rows, domain %d)", trial, pair[0], pair[1], l.Len(), r.Len(), domain)
		if common := l.Schema().AttrSet().Intersect(r.Schema().AttrSet()); !common.IsEmpty() {
			build := l
			if l.Len() > r.Len() {
				build = r
			}
			pos, _ := build.Schema().Positions(common)
			_, direct := directSpace(build, pos)
			reached[shape{len(pos), direct}] = true
		}
		checkKernelAgainstTupleMap(t, "join "+name, l, r, ParallelJoinBlocksGoverned, JoinGoverned)
		checkKernelAgainstTupleMap(t, "semijoin "+name, l, r, ParallelSemijoinBlocksGoverned, SemijoinGoverned)
		var attrs AttrSet
		for _, a := range l.Schema().Attrs() {
			if rng.Intn(2) == 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			attrs = AttrSet{l.Schema().Attrs()[0]}
		}
		project := func(g *govern.Governor, b, _ *ColBlock, _ int) (*ColBlock, error) {
			return ProjectBlocksGoverned(g, b, attrs)
		}
		projectOracle := func(g *govern.Governor, rel, _ *Relation) (*Relation, error) {
			return ProjectGoverned(g, rel, attrs)
		}
		checkKernelAgainstTupleMap(t, fmt.Sprintf("π_%v %s", attrs, name), l, r, project, projectOracle)
	}
	for keys := 1; keys <= 3; keys++ {
		for _, direct := range []bool{true, false} {
			if !reached[shape{keys, direct}] {
				t.Errorf("no join indexed %d key columns with direct=%v", keys, direct)
			}
		}
	}
}

// TestKernelBatchBoundariesMatchTupleMapOps drives the join and semijoin
// kernels across probe batch boundaries: probe sides of 0, 1, probeBatch−1,
// probeBatch, probeBatch+1 and 3·probeBatch+7 rows against a build side of
// at most 40, keyed on one, two and three columns through a direct table
// and through a map (packed up to two columns, wide beyond), with probe
// codes that have no image in the build dictionary in no key column, in
// one, in some and in all — the rows the direct table clamps to its
// sentinel id. Both argument orders run, so the larger side probes as l and
// as r, and the semijoin takes both of its paths. At workers 1 and 3, with
// the range split forced on so that range ends fall inside batches, rows,
// row order and the charged total must match the tuple-map operators, and
// so must the abort on a budget one tuple short and on a budget whose
// crossing tuple falls inside a later batch: the same LimitError on one
// range, ErrTupleBudget on three.
func TestKernelBatchBoundariesMatchTupleMapOps(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(2042))
	midBatch := 0
	for _, keys := range []string{"B", "BC", "BCD"} {
		for _, direct := range []bool{true, false} {
			for _, n := range []int{0, 1, probeBatch - 1, probeBatch, probeBatch + 1, 3*probeBatch + 7} {
				for _, alien := range []string{"none", "one", "some", "all"} {
					build, probe := boundaryPair(rng, keys, min(n, 40), n, direct, alien)
					pos, _ := build.Schema().Positions(NewAttrSet(strings.Split(keys, "")...))
					if got := newKeySpace(build, pos).direct(); got != direct {
						t.Fatalf("%s key, build of %d rows: direct table %v, want %v", keys, build.Len(), got, direct)
					}
					name := fmt.Sprintf("%s key (direct %v), %d probe rows, no image in %s", keys, direct, n, alien)
					for _, order := range [][2]*ColBlock{{build, probe}, {probe, build}} {
						l, r := order[0], order[1]
						checkKernelAgainstTupleMap(t, "join "+name, l, r, ParallelJoinBlocksGoverned, JoinGoverned, 1, 3)
						checkKernelAgainstTupleMap(t, "semijoin "+name, l, r, ParallelSemijoinBlocksGoverned, SemijoinGoverned, 1, 3)
					}
					// A budget whose crossing tuple lies inside a batch past the
					// first, where the probe side is larger than the build side.
					if budget, ok := midBatchBudget(build, probe, false); ok {
						midBatch++
						checkAbortAt(t, "join "+name, build, probe, budget, ParallelJoinBlocksGoverned, JoinGoverned)
						checkAbortAt(t, "join "+name, probe, build, budget, ParallelJoinBlocksGoverned, JoinGoverned)
					}
					if budget, ok := midBatchBudget(build, probe, true); ok {
						checkAbortAt(t, "semijoin "+name, probe, build, budget, ParallelSemijoinBlocksGoverned, SemijoinGoverned)
					}
				}
			}
		}
	}
	if midBatch == 0 {
		t.Fatal("no budget crossed inside a later batch")
	}
}

// boundaryPair returns a build block of m rows over A and keys and a probe
// block of n rows over keys and Z, each row made distinct by its A or Z.
// A direct build draws its keys from small domains; a map-shaped one is cut
// from 2 000 rows over wide domains, keeping their dictionaries, so that
// even a one-column key spans too many codes to address. alien picks which
// probe key columns hold values absent from the build dictionaries: none,
// the first on alternate rows, a random third of them, or all; every other
// probe value is from the build dictionary, and half the probe rows copy a
// build row's key outright.
func boundaryPair(rng *rand.Rand, keys string, m, n int, direct bool, alien string) (build, probe *ColBlock) {
	k := len(keys)
	domain := map[int]int{1: 40, 2: 12, 3: 6}[k]
	rows := m
	if !direct {
		domain, rows = 1000, 2000
	}
	b := New(SchemaOfRunes("A" + keys))
	for i := 0; i < rows; i++ {
		row := Tuple{Int(int64(i))}
		for c := 0; c < k; c++ {
			row = append(row, Int(int64(rng.Intn(domain))))
		}
		b.MustInsert(row)
	}
	build = FromRelation(b)
	if !direct {
		keep := New(SchemaOfRunes("A"))
		for i := 0; i < m; i++ {
			keep.MustInsert(Tuple{Int(int64(i))})
		}
		build, _ = ParallelSemijoinBlocksGoverned(nil, build, FromRelation(keep), 1)
	}
	p := New(SchemaOfRunes(keys + "Z"))
	for i := 0; i < n; i++ {
		row := make(Tuple, 0, k+1)
		copyRow := build.Len() > 0 && rng.Intn(2) == 0
		src := 0
		if build.Len() > 0 {
			src = rng.Intn(build.Len())
		}
		for c := 0; c < k; c++ {
			absent := build.Len() == 0 || alien == "all" ||
				(alien == "one" && c == 0 && i%2 == 0) || (alien == "some" && rng.Intn(3) == 0)
			switch {
			case absent:
				row = append(row, Int(int64(1_000_000+rng.Intn(50))))
			case copyRow:
				row = append(row, build.Value(src, c+1))
			default:
				dict := build.Dict(c + 1)
				row = append(row, dict[rng.Intn(len(dict))])
			}
		}
		p.MustInsert(append(row, Int(int64(i))))
	}
	return build, FromRelation(p)
}

// midBatchBudget returns a budget whose crossing tuple is charged by a
// probe row in the middle of a batch past the first, when the larger probe
// side probes: the join charges each probe row's matches, the semijoin
// (semi) one tuple per probe row with a match.
func midBatchBudget(build, probe *ColBlock, semi bool) (int64, bool) {
	if probe.Len() <= probeBatch || probe.Len() <= build.Len() {
		return 0, false
	}
	bPos, pPos := CommonPositions(build.Schema(), probe.Schema())
	matches := map[string]int64{}
	for _, row := range build.ToRelation().Rows() {
		matches[row.keyAt(bPos)]++
	}
	var charged int64
	budget, ok := int64(0), false
	for i, row := range probe.ToRelation().Rows() {
		c := matches[row.keyAt(pPos)]
		if semi {
			c = min(c, 1)
		}
		if off := i % probeBatch; i >= probeBatch && off > probeBatch/4 && off < 3*probeBatch/4 && c > 0 && charged+c > 1 {
			budget, ok = charged+c-1, true
		}
		charged += c
	}
	return budget, ok
}

// checkAbortAt runs kernel on (l, r) and the tuple-map oracle under
// MaxTuples budget at the governor's default settle interval: both must
// abort, with the same LimitError on one range and ErrTupleBudget and no
// output on three.
func checkAbortAt(t *testing.T, name string, l, r *ColBlock, budget int64,
	kernel func(*govern.Governor, *ColBlock, *ColBlock, int) (*ColBlock, error),
	oracle func(*govern.Governor, *Relation, *Relation) (*Relation, error)) {
	t.Helper()
	var want *govern.LimitError
	if _, err := oracle(govern.New(govern.Limits{MaxTuples: budget}), l.ToRelation(), r.ToRelation()); !errors.As(err, &want) {
		t.Fatalf("%s: oracle under budget %d: %v, want a LimitError", name, budget, err)
	}
	for _, w := range []int{1, 3} {
		out, err := kernel(govern.New(govern.Limits{MaxTuples: budget}), l, r, w)
		var got *govern.LimitError
		if out != nil || !errors.As(err, &got) {
			t.Fatalf("%s, %d workers: budget %d gave %v, %v; want a LimitError", name, w, budget, out, err)
		}
		if w == 1 && *got != *want {
			t.Fatalf("%s: budget %d aborted with %+v, tuple-map with %+v", name, budget, *got, *want)
		}
	}
}

// kernelFunc is the signature the differential checks drive a kernel by.
type kernelFunc = func(*govern.Governor, *ColBlock, *ColBlock, int) (*ColBlock, error)

// TestFactorizedHeadsMatchTupleMapOps feeds join heads — the output of a
// join of two plain blocks, kept as pairs until a reader needs its columns
// — into every reader of a block: the semijoin with the head on either side
// (probing, indexed, scanned), the join with the head as probe side and as
// build side in either operand position, projection, Trie, decode and JSON.
// Heads are over one and two key columns and Cartesian products, the other
// operand is a plain block or another head, and the readers' key spaces
// take both shapes. Every kernel call reads heads no reader has touched, at
// workers 1–4 with the range split forced on; rows, row order, Produced and
// the abort charge on one range at a sweep of MaxTuples boundaries must
// match the tuple-map operators over the written heads, and a head must be
// written by exactly the readers that need its columns.
func TestFactorizedHeadsMatchTupleMapOps(t *testing.T) {
	defer SetParallelThreshold(0)()
	rng := rand.New(rand.NewSource(2050))
	block := func(scheme string, domain int) *ColBlock {
		if rng.Intn(3) > 0 {
			return FromRelation(randRel(rng, scheme, rng.Intn(40), domain))
		}
		return cutBlock(FromRelation(randRel(rng, scheme, 400, domain)))
	}
	// again maps a head to a function making a fresh one from its parents.
	again := map[*ColBlock]func() *ColBlock{}
	newHead := func(a, b *ColBlock) *ColBlock {
		join := func() *ColBlock {
			h, err := JoinBlocksGoverned(nil, a, b)
			if err != nil || h.head == nil {
				t.Fatalf("join of plain blocks gave %v, %v; want a head", h, err)
			}
			return h
		}
		h := join()
		again[h] = join
		return h
	}
	fresh := func(b *ColBlock) *ColBlock {
		if f, ok := again[b]; ok {
			return f()
		}
		return b
	}
	written := func(b *ColBlock) bool { return b.head != nil && b.head.cols != nil }
	reached := map[string]bool{}
	// onFresh runs kernel on fresh heads and checks which of them it wrote:
	// buildsL and buildsR say whether the kernel reads l's and r's columns.
	onFresh := func(name string, kernel kernelFunc, buildsL, buildsR bool) kernelFunc {
		return func(g *govern.Governor, l, r *ColBlock, w int) (*ColBlock, error) {
			l, r = fresh(l), fresh(r)
			out, err := kernel(g, l, r, w)
			for _, side := range []struct {
				b     *ColBlock
				build bool
			}{{l, buildsL}, {r, buildsR}} {
				if side.b.head != nil && written(side.b) != side.build {
					t.Fatalf("%s, %d workers: head written %v, want %v", name, w, written(side.b), side.build)
				}
			}
			return out, err
		}
	}
	// sweep checks the abort charge on one range at MaxTuples boundaries
	// across the whole charge: all of them on small totals.
	sweep := func(name string, l, r *ColBlock, kernel kernelFunc, oracle func(*govern.Governor, *Relation, *Relation) (*Relation, error)) {
		g := govern.New(govern.Limits{MaxTuples: 1 << 40})
		if _, err := oracle(g, l.ToRelation(), r.ToRelation()); err != nil {
			t.Fatal(err)
		}
		total := g.Produced()
		for k := 0; k < 6 && total >= 2; k++ {
			budget := 1 + rng.Int63n(total-1)
			if total <= 7 {
				budget = int64(1 + k%int(total-1))
			}
			checkAbortAt(t, fmt.Sprintf("%s, budget %d", name, budget), l, r, budget, kernel, oracle)
		}
	}
	heads := [][2]string{{"AB", "BC"}, {"ABC", "BCD"}, {"AB", "CD"}}
	for trial := 0; trial < 90; trial++ {
		hp := heads[trial%len(heads)]
		domain := []int{2, 4, 40, 1000}[rng.Intn(4)]
		a, b := block(hp[0], domain), block(hp[1], domain)
		h := newHead(a, b)
		want := Join(a.ToRelation(), b.ToRelation())
		name := fmt.Sprintf("trial %d (head %s ⋈ %s, %d rows, domain %d)", trial, hp[0], hp[1], want.Len(), domain)
		// The other operand: some of the head's attributes (none makes a
		// product) and E, as a plain block or as a head over E and F.
		var scheme string
		for _, attr := range h.Schema().Attrs() {
			if rng.Intn(2) == 0 {
				scheme += attr
			}
		}
		x := block(scheme+"E", domain)
		if rng.Intn(3) == 0 {
			x = newHead(x, block("EF", domain))
		}
		name += fmt.Sprintf(" with %s (%d rows)", x.Schema(), x.Len())

		// Decode, JSON, Trie: the written head is the tuple-map join.
		if rows := fresh(h).ToRelation().Rows(); !slices.EqualFunc(rows, want.Rows(), func(u, v Tuple) bool { return u.Compare(v) == 0 }) {
			t.Fatalf("%s: decoded head differs from the tuple-map join", name)
		}
		for _, max := range []int{0, 3} {
			got, _, err := fresh(h).ToRelation().AppendJSON(nil, max)
			wantJSON, _, err2 := want.AppendJSON(nil, max)
			if err != nil || err2 != nil || string(got) != string(wantJSON) {
				t.Fatalf("%s: head JSON (max %d)\n%s\nwant\n%s", name, max, got, wantJSON)
			}
		}
		order := slices.Clone(h.Schema().Attrs())
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		trie, _, err := fresh(h).Trie(order)
		if err != nil {
			t.Fatal(err)
		}
		wantTrie, _, _ := FromRelation(want).Trie(order)
		if !slices.EqualFunc(trieRows(trie), trieRows(wantTrie), func(u, v Tuple) bool { return u.Compare(v) == 0 }) {
			t.Fatalf("%s: head trie for %v differs from the tuple-map join's", name, order)
		}

		for _, ops := range [][2]*ColBlock{{h, x}, {x, h}} {
			l, r := ops[0], ops[1]
			lPos, _ := CommonPositions(l.Schema(), r.Schema())
			probeIsL := l.Len() > r.Len() || len(lPos) == 0
			role := "build"
			if probeIsL == (l == h) {
				role = "probe"
			}
			reached["join, head "+role] = true
			indexesR := len(lPos) == 0 || l.Len() > r.Len()
			role = map[[2]bool]string{{true, true}: "l probing", {true, false}: "l indexed", {false, true}: "r indexed", {false, false}: "r scanned"}[[2]bool{l == h, indexesR}]
			reached["semijoin, head "+role] = true
			if len(lPos) > 0 {
				indexed, pos := l, lPos
				if indexesR {
					indexed, pos = r, nil
					pos, _ = CommonPositions(r.Schema(), l.Schema())
				}
				_, direct := directSpace(indexed, pos)
				reached[fmt.Sprintf("semijoin, direct %v", direct)] = true
			}
			opName := fmt.Sprintf("%s, %s ⋈ %s", name, l.Schema(), r.Schema())
			join := onFresh("join "+opName, ParallelJoinBlocksGoverned, !probeIsL, probeIsL)
			semijoin := onFresh("semijoin "+opName, ParallelSemijoinBlocksGoverned, false, false)
			checkKernelAgainstTupleMap(t, "join "+opName, l, r, join, JoinGoverned, 1, 2, 3, 4)
			checkKernelAgainstTupleMap(t, "semijoin "+opName, l, r, semijoin, SemijoinGoverned, 1, 2, 3, 4)
			sweep("join "+opName, l, r, join, JoinGoverned)
			sweep("semijoin "+opName, l, r, semijoin, SemijoinGoverned)
		}

		kept := []string{h.Schema().Attrs()[rng.Intn(h.Schema().Len())]}
		for _, a := range h.Schema().Attrs() {
			if rng.Intn(2) == 0 {
				kept = append(kept, a)
			}
		}
		attrs := NewAttrSet(kept...)
		project := onFresh("project "+name, func(g *govern.Governor, b, _ *ColBlock, _ int) (*ColBlock, error) {
			return ProjectBlocksGoverned(g, b, attrs)
		}, true, false)
		projectOracle := func(g *govern.Governor, rel, _ *Relation) (*Relation, error) {
			return ProjectGoverned(g, rel, attrs)
		}
		checkKernelAgainstTupleMap(t, fmt.Sprintf("π_%v %s", attrs, name), h, x, project, projectOracle, 1, 2, 3, 4)
		sweep(fmt.Sprintf("π_%v %s", attrs, name), h, x, project, projectOracle)
	}
	for _, role := range []string{"join, head probe", "join, head build", "semijoin, head l probing", "semijoin, head l indexed",
		"semijoin, head r indexed", "semijoin, head r scanned", "semijoin, direct true", "semijoin, direct false"} {
		if !reached[role] {
			t.Errorf("no trial reached %s", role)
		}
	}
}

// trieRows returns a trie's root-to-leaf paths, decoded, in trie order.
func trieRows(tr *Trie) []Tuple {
	k := tr.Schema().Len()
	var rows []Tuple
	var walk func(d, lo, hi int, prefix Tuple)
	walk = func(d, lo, hi int, prefix Tuple) {
		for i := lo; i < hi; i++ {
			row := append(prefix[:d:d], tr.Dict(d)[tr.Keys(d)[i]])
			if d == k-1 {
				rows = append(rows, row)
			} else {
				walk(d+1, int(tr.Start(d)[i]), int(tr.Start(d)[i+1]), row)
			}
		}
	}
	if k > 0 {
		walk(0, 0, len(tr.Keys(0)), nil)
	}
	return rows
}
