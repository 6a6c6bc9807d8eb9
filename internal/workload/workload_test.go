package workload

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

func TestCycleSchemeMatchesPaper(t *testing.T) {
	spec := UniformCycle(4, 2, 3)
	h, err := spec.CycleScheme()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ABC", "CDE", "EFG", "GHA"}
	for i, w := range want {
		if h.DisplayName(i) != w {
			t.Errorf("scheme %d = %s, want %s", i, h.DisplayName(i), w)
		}
	}
	if !h.Connected(h.Full()) {
		t.Error("cycle scheme should be connected")
	}
	if h.Acyclic() {
		t.Error("cycle scheme should be cyclic")
	}
}

func TestCycleSpecValidate(t *testing.T) {
	bad := []CycleSpec{
		{Relations: 2, M: 2, Payloads: []int64{1, 1}},
		{Relations: 14, M: 2, Payloads: make([]int64, 14)},
		{Relations: 4, M: 1, Payloads: []int64{1, 1, 1, 1}},
		{Relations: 4, M: 2, Payloads: []int64{1, 1, 1}},
		{Relations: 4, M: 2, Payloads: []int64{1, 0, 1, 1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := UniformCycle(4, 2, 1).Validate(); err != nil {
		t.Errorf("minimal valid spec rejected: %v", err)
	}
}

func TestCycleDatabaseProperties(t *testing.T) {
	for _, spec := range []CycleSpec{
		UniformCycle(4, 2, 3),
		UniformCycle(4, 5, 2),
		UniformCycle(5, 3, 2),
		UniformCycle(3, 4, 2),
		{Relations: 4, M: 2, Payloads: []int64{8, 4, 2, 4}},
	} {
		db, err := spec.CycleDatabase()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		// Sizes: M·p + 1.
		for i, want := range spec.Sizes() {
			if got := int64(db.Relation(i).Len()); got != want {
				t.Errorf("%+v: relation %d has %d tuples, want %d", spec, i, got, want)
			}
		}
		// Pairwise consistent but not globally: ⋈D is exactly the Bottom
		// tuple.
		if !db.PairwiseConsistent() {
			t.Errorf("%+v: not pairwise consistent", spec)
		}
		full := db.Join()
		if full.Len() != 1 {
			t.Fatalf("%+v: ⋈D has %d tuples, want 1", spec, full.Len())
		}
		if db.GloballyConsistentWith(full) {
			t.Errorf("%+v: unexpectedly globally consistent", spec)
		}
		for _, v := range full.Rows()[0] {
			if v.AsInt() != Bottom && v.AsInt() != 0 {
				t.Errorf("%+v: surviving tuple %v is not the Bottom tuple", spec, full.Rows()[0])
			}
		}
	}
}

func TestExample3Spec(t *testing.T) {
	spec, err := Example3(10)
	if err != nil {
		t.Fatal(err)
	}
	sizes := spec.Sizes()
	want := []int64{1001, 101, 11, 101} // q³+1, q²+1, q+1, q²+1
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("size %d = %d, want %d", i, sizes[i], want[i])
		}
	}
	if _, err := Example3(3); err == nil {
		t.Error("odd scale accepted")
	}
	if _, err := Example3(0); err == nil {
		t.Error("zero scale accepted")
	}
}

// TestAnalyticSizerMatchesCatalog is the load-bearing cross-check: the
// closed-form sizes must agree with the measuring catalog on every subset.
func TestAnalyticSizerMatchesCatalog(t *testing.T) {
	for _, spec := range []CycleSpec{
		UniformCycle(4, 2, 3),
		UniformCycle(5, 3, 2),
		UniformCycle(3, 4, 3),
		{Relations: 4, M: 2, Payloads: []int64{8, 4, 2, 4}},
	} {
		db, err := spec.CycleDatabase()
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := spec.AnalyticSizer()
		if err != nil {
			t.Fatal(err)
		}
		catalog := optimizer.NewCatalog(db, 0)
		h := analytic.Hypergraph()
		for mask := hypergraph.Mask(1); mask <= h.Full(); mask++ {
			want, err := catalog.Size(mask)
			if err != nil {
				t.Fatal(err)
			}
			got, err := analytic.Size(mask)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%+v: analytic Size(%v) = %d, measured %d", spec, mask, got, want)
			}
		}
	}
}

// TestAnalyticOptimalMatchesMeasured: the exact DPs must pick the same
// optimal costs whether sizes are measured or computed in closed form.
func TestAnalyticOptimalMatchesMeasured(t *testing.T) {
	spec, err := Example3(6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := spec.AnalyticSizer()
	if err != nil {
		t.Fatal(err)
	}
	catalog := optimizer.NewCatalog(db, 0)
	for _, space := range []optimizer.Space{
		optimizer.SpaceAll, optimizer.SpaceCPF, optimizer.SpaceLinear, optimizer.SpaceLinearCPF,
	} {
		a, err := optimizer.Optimal(analytic, space)
		if err != nil {
			t.Fatalf("analytic Optimal(%s): %v", space, err)
		}
		m, err := optimizer.Optimal(catalog, space)
		if err != nil {
			t.Fatalf("measured Optimal(%s): %v", space, err)
		}
		if a.Cost != m.Cost {
			t.Errorf("Optimal(%s): analytic %d, measured %d", space, a.Cost, m.Cost)
		}
	}
}

func TestRandomScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, err := RandomScheme(rng, RandomSchemeSpec{Relations: 5, Attrs: 6, MaxArity: 3, Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 5 || !h.Connected(h.Full()) {
		t.Errorf("RandomScheme = %s", h)
	}
	if _, err := RandomScheme(rng, RandomSchemeSpec{Relations: 0}); err == nil {
		t.Error("bad spec accepted")
	}
	// Impossible connectivity request must fail after bounded retries: two
	// relations of arity 1 over 2 attributes can be disconnected, but with 1
	// attribute they always connect; use attrs=2, arity=1, relations=2 —
	// sometimes connect; instead force impossibility with disjoint pools.
	if _, err := RandomScheme(rng, RandomSchemeSpec{Relations: 2, Attrs: 1, MaxArity: 1, Connected: true}); err != nil {
		t.Errorf("always-connected spec failed: %v", err)
	}
}

func TestRandomDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, err := RandomScheme(rng, RandomSchemeSpec{Relations: 3, Attrs: 5, MaxArity: 3, Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := RandomDatabase(rng, h, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Errorf("database has %d relations", db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		if db.Relation(i).Len() > 20 {
			t.Errorf("relation %d has %d tuples, want ≤ 20", i, db.Relation(i).Len())
		}
		if !db.Relation(i).Schema().AttrSet().Equal(h.Edge(i)) {
			t.Errorf("relation %d schema mismatch", i)
		}
	}
	if _, err := RandomDatabase(rng, h, -1, 4); err == nil {
		t.Error("negative size accepted")
	}
}

func TestSchemeShapes(t *testing.T) {
	chain, err := ChainScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Acyclic() || !chain.Connected(chain.Full()) {
		t.Error("chain should be acyclic and connected")
	}
	clique, err := CliqueScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	if clique.Len() != 6 {
		t.Errorf("K4 clique has %d edges, want 6", clique.Len())
	}
	if clique.Acyclic() {
		t.Error("clique on 4 attributes should be cyclic")
	}
	// Degenerate sizes rejected.
	if _, err := ChainScheme(0); err == nil {
		t.Error("0-chain accepted")
	}
	if _, err := CliqueScheme(1); err == nil {
		t.Error("1-clique accepted")
	}
}

func TestChainDatabase(t *testing.T) {
	db, err := ChainDatabase(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	full := db.Join()
	// Ascending runs of length 4 in [0,10): starts 0..6 → 7 tuples.
	if full.Len() != 7 {
		t.Errorf("chain join has %d tuples, want 7", full.Len())
	}
}

func TestDanglingChainDatabase(t *testing.T) {
	db, err := DanglingChainDatabase(3, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ChainDatabase(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Join().Equal(clean.Join()) {
		t.Error("dangling tuples changed the join result")
	}
	for i := 0; i < db.Len(); i++ {
		if db.Relation(i).Len() != clean.Relation(i).Len()+5 {
			t.Errorf("relation %d missing dangling tuples", i)
		}
	}
	if db.PairwiseConsistent() {
		t.Error("dangling database should not be pairwise consistent")
	}
}

// TestCycleAdjacentJoinFormula verifies the near-Cartesian adjacent join
// size M·p_i·p_j + 1 against actual evaluation.
func TestCycleAdjacentJoinFormula(t *testing.T) {
	spec := CycleSpec{Relations: 4, M: 3, Payloads: []int64{5, 4, 3, 2}}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		got := relation.Join(db.Relation(i), db.Relation(j)).Len()
		want := spec.M*spec.Payloads[i]*spec.Payloads[j] + 1
		if int64(got) != want {
			t.Errorf("|R%d ⋈ R%d| = %d, want %d", i+1, j+1, got, want)
		}
	}
}

func TestTriangleDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	spec := TriangleSpec{Nodes: 30, Edges: 120}
	db, err := spec.TriangleDatabase(rng)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("relations = %d", db.Len())
	}
	for i := 0; i < 3; i++ {
		if db.Relation(i).Len() != 120 {
			t.Errorf("relation %d has %d edges, want 120", i, db.Relation(i).Len())
		}
	}
	h := hypergraph.OfScheme(db)
	if h.Acyclic() {
		t.Error("triangle scheme should be cyclic")
	}
	// Triangle count via the join must match a brute-force count.
	full := db.Join()
	brute := 0
	edges := map[[2]int64]bool{}
	for _, row := range db.Relation(0).Rows() {
		edges[[2]int64{row[0].AsInt(), row[1].AsInt()}] = true
	}
	for e1 := range edges {
		for e2 := range edges {
			if e1[1] != e2[0] {
				continue
			}
			if edges[[2]int64{e2[1], e1[0]}] {
				brute++
			}
		}
	}
	if full.Len() != brute {
		t.Errorf("join counts %d triangles, brute force %d", full.Len(), brute)
	}
	// Bad specs rejected.
	if _, err := (TriangleSpec{Nodes: 1, Edges: 1}).TriangleDatabase(rng); err == nil {
		t.Error("1-node spec accepted")
	}
	if _, err := (TriangleSpec{Nodes: 3, Edges: 100}).TriangleDatabase(rng); err == nil {
		t.Error("impossible edge count accepted")
	}
}
