package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/workload"
)

// cycleDB returns a uniform 4-cycle database (link domain m, payload p per
// relation) and its spec.
func cycleDB(t *testing.T, m, p int64) (*relation.Database, workload.CycleSpec) {
	t.Helper()
	spec := workload.UniformCycle(4, m, p)
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatalf("CycleDatabase: %v", err)
	}
	return db, spec
}

// example3DB returns the paper-shaped Example 3 instance at scale q.
func example3DB(t *testing.T, q int64) (*relation.Database, workload.CycleSpec) {
	t.Helper()
	spec, err := workload.Example3(q)
	if err != nil {
		t.Fatalf("Example3: %v", err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatalf("CycleDatabase: %v", err)
	}
	return db, spec
}

func TestCatalogSizes(t *testing.T) {
	db, _ := cycleDB(t, 3, 2)
	c := NewCatalog(db, 0)
	// Singleton sizes are relation sizes.
	for i := 0; i < 4; i++ {
		got, err := c.Size(hypergraph.MaskOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(db.Relation(i).Len()) {
			t.Errorf("Size({%d}) = %d, want %d", i, got, db.Relation(i).Len())
		}
	}
	// Full size is |⋈D| = 1.
	full, err := c.Size(c.Hypergraph().Full())
	if err != nil {
		t.Fatal(err)
	}
	if full != 1 {
		t.Errorf("Size(full) = %d, want 1", full)
	}
	// Disconnected pair: product of sizes, no materialization of the pair.
	opp, err := c.Size(hypergraph.MaskOf(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(db.Relation(0).Len()) * int64(db.Relation(2).Len())
	if opp != want {
		t.Errorf("Size(opposite pair) = %d, want %d", opp, want)
	}
	// Connected pair: actual join size.
	adj, err := c.Size(hypergraph.MaskOf(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	real := relation.Join(db.Relation(0), db.Relation(1))
	if adj != int64(real.Len()) {
		t.Errorf("Size(adjacent pair) = %d, want %d", adj, real.Len())
	}
}

// TestCatalogSizeMatchesEvaluationEverywhere checks every mask's Size
// against the tuple-map JoinAll of the restricted database, over 120 random
// schemes (disconnected ones included, with domains from dense to sparse so
// the join kernels index on both table shapes) and the adversarial corpus.
func TestCatalogSizeMatchesEvaluationEverywhere(t *testing.T) {
	check := func(name string, db *relation.Database) {
		t.Helper()
		h := hypergraph.OfScheme(db)
		c := NewCatalog(db, 0)
		for mask := hypergraph.Mask(1); mask <= h.Full(); mask++ {
			got, err := c.Size(mask)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := db.Restrict(mask.Indexes())
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(sub.Join().Len()); got != want {
				t.Fatalf("%s: Size(%v) = %d, want %d on %s", name, mask, got, want, h)
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(4), Attrs: 4, MaxArity: 3, Connected: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(40), 2+rng.Intn(60))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d", trial), db)
	}
	cases, err := workload.AdversarialCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, ac := range cases {
		db, err := ac.Database()
		if err != nil {
			t.Fatal(err)
		}
		check(ac.Name, db)
	}
}

// TestCatalogBudget pins the catalog's materialization accounting on the
// 4-cycle: sizing ⋈D materializes exactly 4 804 tuples, a budget of exactly
// that passes, one less fails with a *govern.LimitError, and a tiny budget
// aborts the first sub-join before it is memoized, leaving only leaves.
func TestCatalogBudget(t *testing.T) {
	db, _ := cycleDB(t, 3, 20)
	const total = 4804
	full := hypergraph.OfScheme(db).Full()
	free := NewCatalog(db, 0)
	if _, err := free.Size(full); err != nil || free.gov.Produced() != total {
		t.Fatalf("unbounded search: materialized %d, err %v; want %d, nil", free.gov.Produced(), err, total)
	}
	if _, err := NewCatalog(db, total).Size(full); err != nil {
		t.Errorf("budget == total must pass, got %v", err)
	}
	for _, budget := range []int64{total - 1, 10} {
		c := NewCatalog(db, budget)
		_, err := c.Size(full)
		var lim *govern.LimitError
		if !errors.As(err, &lim) || !errors.Is(err, govern.ErrTupleBudget) || lim.Max != budget {
			t.Errorf("budget %d: err = %v, want a *govern.LimitError at MaxTuples %d", budget, err, budget)
		}
		if budget != 10 {
			continue
		}
		for mask := range c.mat {
			if mask.Count() != 1 {
				t.Errorf("budget 10: sub-join %s memoized after the abort", mask)
			}
		}
	}
}

func TestCatalogRejectsEmptyAndDisconnectedMaterialize(t *testing.T) {
	db, _ := cycleDB(t, 3, 2)
	c := NewCatalog(db, 0)
	if _, err := c.Size(0); err == nil {
		t.Error("Size(∅) accepted")
	}
	if _, err := c.materialize(hypergraph.MaskOf(0, 2)); err == nil {
		t.Error("Materialize of disconnected subset accepted")
	}
}

// TestOptimalAgainstEnumeration cross-checks every exact DP against brute
// force enumeration of its space on the paper's 4-cycle. A plan's cost
// leaves out |⋈D|, which every tree pays at its root.
func TestOptimalAgainstEnumeration(t *testing.T) {
	db, _ := cycleDB(t, 3, 2)
	c := NewCatalog(db, 0)
	h := c.Hypergraph()
	root := int64(db.Join().Len())

	enumBest := func(trees []*jointree.Tree) int64 {
		best := int64(math.MaxInt64)
		for _, tr := range trees {
			if cost := int64(tr.Cost(db)); cost < best {
				best = cost
			}
		}
		return best
	}

	all, err := jointree.AllTrees(h)
	if err != nil {
		t.Fatal(err)
	}
	cpf, err := jointree.AllCPFTrees(h)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := jointree.AllLinearTrees(h, false)
	if err != nil {
		t.Fatal(err)
	}
	linCPF, err := jointree.AllLinearTrees(h, true)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		space Space
		trees []*jointree.Tree
	}{
		{SpaceAll, all},
		{SpaceCPF, cpf},
		{SpaceLinear, lin},
		{SpaceLinearCPF, linCPF},
	}
	for _, cse := range cases {
		plan, err := Optimal(c, cse.space)
		if err != nil {
			t.Fatalf("Optimal(%s): %v", cse.space, err)
		}
		want := enumBest(cse.trees)
		if plan.Cost+root != want {
			t.Errorf("Optimal(%s) = %d + %d, enumeration says %d (tree %s)",
				cse.space, plan.Cost, root, want, plan.Tree.String(h))
		}
		// The returned tree's real cost must equal the claimed cost.
		if real := int64(plan.Tree.Cost(db)); real != plan.Cost+root {
			t.Errorf("Optimal(%s): claimed %d + %d, tree actually costs %d", cse.space, plan.Cost, root, real)
		}
		// Space membership.
		switch cse.space {
		case SpaceCPF:
			if !plan.Tree.IsCPF(h) {
				t.Errorf("Optimal(CPF) returned non-CPF tree")
			}
		case SpaceLinear:
			if !plan.Tree.IsLinear() {
				t.Errorf("Optimal(linear) returned non-linear tree")
			}
		case SpaceLinearCPF:
			if !plan.Tree.IsLinear() || !plan.Tree.IsCPF(h) {
				t.Errorf("Optimal(linear-CPF) returned tree outside the space")
			}
		}
	}
}

// TestOptimalRandomizedAgainstEnumeration repeats the cross-check on random
// schemes and databases.
func TestOptimalRandomizedAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(3), Attrs: 4, MaxArity: 2, Connected: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(8), 3)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCatalog(db, 0)
		all, err := jointree.AllTrees(h)
		if err != nil {
			t.Fatal(err)
		}
		best := int64(math.MaxInt64)
		for _, tr := range all {
			if cost := int64(tr.Cost(db)); cost < best {
				best = cost
			}
		}
		plan, err := Optimal(c, SpaceAll)
		if err != nil {
			t.Fatal(err)
		}
		if root := int64(db.Join().Len()); plan.Cost+root != best {
			t.Fatalf("trial %d: DP = %d + %d, enumeration = %d on %s", trial, plan.Cost, root, best, h)
		}
	}
}

// TestExample3Separation is the quantitative heart of Example 3: on the
// paper-shaped cycle family the optimal plan is non-CPF, the cheapest CPF
// and linear plans are worse, and the gap grows with the scale q. Every
// instance here has |⋈D| = 1.
func TestExample3Separation(t *testing.T) {
	db, spec := example3DB(t, 10)
	c := NewCatalog(db, 0)
	h := c.Hypergraph()

	opt, err := Optimal(c, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	cpf, err := Optimal(c, SpaceCPF)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Optimal(c, SpaceLinear)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Tree.IsCPF(h) {
		t.Errorf("optimal tree should be non-CPF, got %s", opt.Tree.String(h))
	}
	if cpf.Cost <= opt.Cost {
		t.Errorf("cheapest CPF (%d) should exceed optimal (%d)", cpf.Cost, opt.Cost)
	}
	if lin.Cost <= opt.Cost {
		t.Errorf("cheapest linear (%d) should exceed optimal (%d)", lin.Cost, opt.Cost)
	}
	// The gap grows with q: at 2q the CPF/optimal ratio must increase.
	db2, _ := example3DB(t, 16)
	c2 := NewCatalog(db2, 0)
	opt2, err := Optimal(c2, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	cpf2, err := Optimal(c2, SpaceCPF)
	if err != nil {
		t.Fatal(err)
	}
	ratio1 := float64(cpf.Cost+1) / float64(opt.Cost+1)
	ratio2 := float64(cpf2.Cost+1) / float64(opt2.Cost+1)
	if ratio2 <= ratio1 {
		t.Errorf("CPF/optimal ratio should grow with q: %f then %f", ratio1, ratio2)
	}
	// The paper's opposite-pair expression is the optimal one; CostOf
	// counts its root, |⋈D| = 1, which the search leaves out.
	nonCPF := jointree.MustParse(h, "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)")
	nonCPFCost, err := CostOf(c, nonCPF)
	if err != nil {
		t.Fatal(err)
	}
	if nonCPFCost != opt.Cost+1 {
		t.Errorf("the opposite-pair expression (%d) should be optimal (%d + 1)", nonCPFCost, opt.Cost)
	}
	// Shape check: optimal ≈ inputs + |R1||R3| + |R2||R4| + 1 exactly.
	sz := spec.Sizes()
	wantOpt := int64(db.TotalTuples()) + sz[0]*sz[2] + sz[1]*sz[3] + 1
	if opt.Cost+1 != wantOpt {
		t.Errorf("optimal cost = %d + 1, want %d (inputs + opposite products + 1)", opt.Cost, wantOpt)
	}
}

func TestCostOfMatchesEval(t *testing.T) {
	db, _ := cycleDB(t, 3, 3)
	c := NewCatalog(db, 0)
	h := c.Hypergraph()
	trees, err := jointree.AllTrees(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees[:40] {
		got, err := CostOf(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(tr.Cost(db)); got != want {
			t.Fatalf("CostOf(%s) = %d, want %d", tr.String(h), got, want)
		}
	}
}

func TestGreedy(t *testing.T) {
	db, _ := cycleDB(t, 3, 4)
	c := NewCatalog(db, 0)
	plan, err := Greedy(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Tree.Validate(c.Hypergraph()); err != nil {
		t.Fatal(err)
	}
	if root, real := int64(db.Join().Len()), int64(plan.Tree.Cost(db)); real != plan.Cost+root {
		t.Errorf("greedy cost %d + %d, tree costs %d", plan.Cost, root, real)
	}
	// Greedy with products allowed finds the opposite-pair plan on the
	// cycle only if products are cheapest; at P=4, M=3 the adjacent join
	// (MP² + …) is smaller than the product (M²P²), so greedy joins
	// adjacent pairs first. Just require it to be no better than optimal.
	opt, err := Optimal(c, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost < opt.Cost {
		t.Errorf("greedy (%d) beat the optimal DP (%d)", plan.Cost, opt.Cost)
	}
	cpfPlan, err := Greedy(c, true)
	if err != nil {
		t.Fatal(err)
	}
	if !cpfPlan.Tree.IsCPF(c.Hypergraph()) {
		t.Error("CPF greedy returned non-CPF tree")
	}
}

func TestGreedyCPFOnDisconnectedScheme(t *testing.T) {
	r1 := relation.New(relation.SchemaOfRunes("AB"))
	r1.MustInsert(relation.Ints(1, 2))
	r2 := relation.New(relation.SchemaOfRunes("CD"))
	r2.MustInsert(relation.Ints(3, 4))
	db := relation.MustDatabase(r1, r2)
	c := NewCatalog(db, 0)
	if _, err := Greedy(c, true); err == nil {
		t.Error("CPF greedy accepted a disconnected scheme")
	}
	if _, err := Greedy(c, false); err != nil {
		t.Errorf("non-CPF greedy should handle disconnected schemes: %v", err)
	}
}

func TestCollectStats(t *testing.T) {
	r := relation.New(relation.SchemaOfRunes("AB"))
	r.MustInsert(relation.Ints(1, 1))
	r.MustInsert(relation.Ints(1, 2))
	r.MustInsert(relation.Ints(2, 2))
	s := CollectStats(r)
	if s.Card != 3 || s.Distinct["A"] != 2 || s.Distinct["B"] != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if satAdd(Infinite, 1) != Infinite {
		t.Error("satAdd does not saturate")
	}
	if satMul(Infinite, 2) != Infinite {
		t.Error("satMul does not saturate")
	}
	if satMul(0, Infinite) != 0 {
		t.Error("satMul(0, ∞) should be 0")
	}
	if satAdd(2, 3) != 5 || satMul(2, 3) != 6 {
		t.Error("saturating arithmetic wrong on small values")
	}
	big := int64(1) << 40
	if satMul(big, big) != Infinite {
		t.Error("satMul should saturate on overflow")
	}
}

func TestSpaceString(t *testing.T) {
	if SpaceAll.String() != "all" || SpaceCPF.String() != "CPF" ||
		SpaceLinear.String() != "linear" || SpaceLinearCPF.String() != "linear-CPF" {
		t.Error("Space.String wrong")
	}
}

func TestOptimalSingleRelation(t *testing.T) {
	r := relation.New(relation.SchemaOfRunes("AB"))
	r.MustInsert(relation.Ints(1, 2))
	db := relation.MustDatabase(r)
	c := NewCatalog(db, 0)
	for _, space := range []Space{SpaceAll, SpaceCPF, SpaceLinear, SpaceLinearCPF} {
		plan, err := Optimal(c, space)
		if err != nil {
			t.Fatalf("Optimal(%s): %v", space, err)
		}
		if !plan.Tree.IsLeaf() || plan.Cost != 0 {
			t.Errorf("Optimal(%s) on single relation = %v cost %d", space, plan.Tree, plan.Cost)
		}
	}
}

func TestOptimalTooManyRelations(t *testing.T) {
	rels := make([]*relation.Relation, MaxExactRelations+1)
	for i := range rels {
		r := relation.New(relation.MustSchema("x"))
		r.MustInsert(relation.Ints(int64(i)))
		rels[i] = r
	}
	db := relation.MustDatabase(rels...)
	c := NewCatalog(db, 0)
	if _, err := Optimal(c, SpaceAll); err == nil {
		t.Error("oversized scheme accepted")
	}
}
