package relation

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/govern"
)

// Differential tests for the columnar batch kernels: JoinBlocksGoverned,
// SemijoinBlocksGoverned, and ProjectBlocksGoverned must be extensionally
// indistinguishable from the tuple-map operators — same result set, same
// governed tuple totals, same budget-abort boundary — over the full schema
// overlap spectrum (schemePairs, including the disjoint Cartesian pair).
// The tuple-map operators are the oracle; these tests are what lets the
// engine lead its degradation ladder with the columnar evaluator.

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
		out, err := SemijoinBlocksGoverned(nil, roundTrip(t, l), roundTrip(t, r))
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
		colSemi, err := SemijoinBlocksGoverned(colG, roundTrip(t, l), roundTrip(t, r))
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
	if a.Len() != b.Len() || !a.Schema().Equal(b.Schema()) {
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
	semi, err := SemijoinBlocksGoverned(nil, roundTrip(t, a), roundTrip(t, New(SchemaOfRunes("CD"))))
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
