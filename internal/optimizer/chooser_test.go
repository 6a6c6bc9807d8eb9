package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

func sketchesOf(t *testing.T, db *relation.Database) []*Sketch {
	t.Helper()
	sks := make([]*Sketch, db.Len())
	for i := range sks {
		sks[i] = BuildSketch(db.Relation(i))
	}
	return sks
}

func zipfRelation(rng *rand.Rand, attrs []string, size, domain int, s float64) *relation.Relation {
	r := relation.New(relation.MustSchema(attrs...))
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	for i := 0; i < size; i++ {
		tup := make(relation.Tuple, len(attrs))
		for j := range tup {
			tup[j] = relation.Int(int64(z.Uint64()))
		}
		_ = r.Insert(tup)
	}
	return r
}

// degree1Relation draws the first attribute uniformly from dom1 and makes
// the second unique — a big relation that joins selectively instead of
// fanning out.
func degree1Relation(rng *rand.Rand, attrs []string, size, dom1 int) *relation.Relation {
	r := relation.New(relation.MustSchema(attrs...))
	for i := 0; i < size; i++ {
		_ = r.Insert(relation.Tuple{relation.Int(int64(rng.Intn(dom1))), relation.Int(int64(i))})
	}
	return r
}

func uniformRelation(rng *rand.Rand, attrs []string, size, domain int) *relation.Relation {
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

// TestChooseHybridAcyclic: acyclic schemes route to the reducer pipeline
// unconditionally.
func TestChooseHybridAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("B", "C"),
		relation.NewAttrSet("C", "D"),
	})
	rels := make([]*relation.Relation, h.Len())
	for i, e := range h.Edges() {
		rels[i] = uniformRelation(rng, e, 50, 10)
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ChooseHybrid(h, sketchesOf(t, db), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Route != RouteAcyclic {
		t.Fatalf("route = %q, want acyclic", ch.Route)
	}
	if ch.EstCost <= 0 {
		t.Fatalf("EstCost = %d, want positive", ch.EstCost)
	}
}

// TestChooseHybridSkewPrefersWCOJ: on a Zipf-skewed triangle the
// histogram-refined binary estimate explodes and the chooser must leave
// the binary route; on the same scheme with uniform data it should stay
// binary (the triejoin's trie build is a real constant-factor cost).
func TestChooseHybridSkewPrefersWCOJ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tri := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("B", "C"),
		relation.NewAttrSet("A", "C"),
	})
	skewed := make([]*relation.Relation, 3)
	for i, e := range tri.Edges() {
		skewed[i] = zipfRelation(rng, e, 500, 50, 1.2)
	}
	sdb, err := relation.NewDatabase(skewed...)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ChooseHybrid(tri, sketchesOf(t, sdb), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Route != RouteWCOJ && ch.Route != RouteMixed {
		t.Fatalf("skewed triangle routed to %q (est binary=%d wcoj=%d)", ch.Route, ch.EstBinary, ch.EstWCOJ)
	}
	if ch.Skew < 2 {
		t.Fatalf("skew = %.2f, expected the Zipf heavy hitter to register", ch.Skew)
	}

	uniform := make([]*relation.Relation, 3)
	for i, e := range tri.Edges() {
		// Sparse uniform edges: pairwise joins stay small, so the binary
		// route's intermediates undercut the triejoin's 2× trie handicap.
		uniform[i] = uniformRelation(rng, e, 60, 60)
	}
	udb, err := relation.NewDatabase(uniform...)
	if err != nil {
		t.Fatal(err)
	}
	uch, err := ChooseHybrid(tri, sketchesOf(t, udb), 1)
	if err != nil {
		t.Fatal(err)
	}
	if uch.Route != RouteBinary {
		t.Fatalf("sparse uniform triangle routed to %q (est binary=%d wcoj=%d)", uch.Route, uch.EstBinary, uch.EstWCOJ)
	}
}

// TestChooseHybridMixed: a skewed triangle core with a large pendant chain
// should pick the mixed route — wcoj would pay its trie handicap on the
// big pendant relations, binary would pay the core's skewed intermediates.
func TestChooseHybridMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("B", "C"),
		relation.NewAttrSet("A", "C"),
		relation.NewAttrSet("C", "D"),
		relation.NewAttrSet("D", "E"),
	})
	rels := make([]*relation.Relation, h.Len())
	for i := 0; i < 3; i++ {
		rels[i] = zipfRelation(rng, h.Edge(i), 200, 50, 1.3)
	}
	// Pendant chains: large but selective (degree 1 on the fresh attribute),
	// so the full triejoin pays its trie handicap on them for nothing while
	// the binary route still pays the core's skewed intermediates.
	rels[3] = degree1Relation(rng, h.Edge(3), 20000, 50)
	rels[4] = degree1Relation(rng, h.Edge(4), 20000, 20000)
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ChooseHybrid(h, sketchesOf(t, db), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Route != RouteMixed {
		t.Fatalf("route = %q (binary=%d wcoj=%d mixed=%d), want mixed",
			ch.Route, ch.EstBinary, ch.EstWCOJ, ch.EstMixed)
	}
	if ch.Core != hypergraph.MaskOf(0, 1, 2) {
		t.Fatalf("core = %s, want the triangle", ch.Core)
	}
	if ch.Outer == nil {
		t.Fatal("mixed route without an outer tree")
	}
}

// TestChooseHybridCorrectionShiftsRoute: a large feedback correction
// inflates generated-tuple estimates for every route proportionally, so it
// cannot flip a decision by itself — but it must scale EstCost so q-error
// feedback converges.
func TestChooseHybridCorrectionShiftsRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tri := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("B", "C"),
		relation.NewAttrSet("A", "C"),
	})
	rels := make([]*relation.Relation, 3)
	for i, e := range tri.Edges() {
		rels[i] = uniformRelation(rng, e, 100, 12)
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	sks := sketchesOf(t, db)
	base, err := ChooseHybrid(tri, sks, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrected, err := ChooseHybrid(tri, sks, 3)
	if err != nil {
		t.Fatal(err)
	}
	if corrected.EstCost <= base.EstCost {
		t.Fatalf("correction 3 did not inflate EstCost: %d vs %d", corrected.EstCost, base.EstCost)
	}
}

// TestChooseHybridDPUnavailable: past MaxExactRelations the chooser falls
// back to the skew heuristic instead of failing.
func TestChooseHybridDPUnavailable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := MaxExactRelations + 2
	edges := make([]relation.AttrSet, n)
	for i := 0; i < n; i++ {
		edges[i] = relation.NewAttrSet(fmt.Sprintf("X%02d", i), fmt.Sprintf("X%02d", (i+1)%n))
	}
	h, err := hypergraph.New(edges)
	if err != nil {
		t.Fatal(err)
	}
	if h.Acyclic() {
		t.Fatal("cycle scheme should be cyclic")
	}
	rels := make([]*relation.Relation, n)
	for i, e := range edges {
		rels[i] = uniformRelation(rng, e, 10, 5)
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ChooseHybrid(h, sketchesOf(t, db), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Route != RouteBinary && ch.Route != RouteWCOJ {
		t.Fatalf("fallback route = %q", ch.Route)
	}
	if ch.Outer != nil {
		t.Fatal("fallback should leave the tree search to the executor")
	}
}

// TestChooseHybridEstimateSanity: for every route EstCost must be at least
// the inputs — §2.3 cost can never be below them.
func TestChooseHybridEstimateSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tri := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("B", "C"),
		relation.NewAttrSet("A", "C"),
	})
	for trial := 0; trial < 10; trial++ {
		rels := make([]*relation.Relation, 3)
		var inputs int64
		for i, e := range tri.Edges() {
			rels[i] = uniformRelation(rng, e, 10+rng.Intn(200), 2+rng.Intn(30))
			inputs += int64(rels[i].Len())
		}
		db, err := relation.NewDatabase(rels...)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := ChooseHybrid(tri, sketchesOf(t, db), 1)
		if err != nil {
			t.Fatal(err)
		}
		if ch.EstCost < inputs {
			t.Fatalf("trial %d: EstCost %d below inputs %d (route %s)", trial, ch.EstCost, inputs, ch.Route)
		}
		if ch.EstCost >= math.MaxInt64/2 && ch.Route != RouteBinary {
			t.Fatalf("trial %d: saturated estimate", trial)
		}
	}
}
