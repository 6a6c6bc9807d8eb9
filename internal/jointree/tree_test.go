package jointree

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

func paperScheme(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.ParseScheme("ABC CDE EFG GHA")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTreeBasics(t *testing.T) {
	tr := NewJoin(NewJoin(NewLeaf(0), NewLeaf(2)), NewJoin(NewLeaf(1), NewLeaf(3)))
	if tr.IsLeaf() {
		t.Error("join node reported as leaf")
	}
	if tr.Size() != 4 {
		t.Errorf("Size = %d", tr.Size())
	}
	if tr.Mask() != hypergraph.MaskOf(0, 1, 2, 3) {
		t.Errorf("Mask = %v", tr.Mask())
	}
}

func TestValidateExactlyOver(t *testing.T) {
	h := paperScheme(t)
	good := NewJoin(NewJoin(NewLeaf(0), NewLeaf(1)), NewJoin(NewLeaf(2), NewLeaf(3)))
	if err := good.Validate(h); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	dup := NewJoin(NewLeaf(0), NewLeaf(0))
	if err := dup.Validate(h); err == nil {
		t.Error("duplicate leaf accepted")
	}
	missing := NewJoin(NewLeaf(0), NewLeaf(1))
	if err := missing.Validate(h); err == nil {
		t.Error("missing relations accepted")
	}
	oor := NewLeaf(9)
	if err := oor.Validate(h); err == nil {
		t.Error("out-of-range leaf accepted")
	}
}

func TestIsCPF(t *testing.T) {
	h := paperScheme(t)
	nonCPF := MustParse(h, "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)")
	if nonCPF.IsCPF(h) {
		t.Error("Figure 1 tree reported CPF")
	}
	cpf := MustParse(h, "((ABC ⋈ CDE) ⋈ EFG) ⋈ GHA")
	if !cpf.IsCPF(h) {
		t.Error("Figure 2 tree reported non-CPF")
	}
	prods := nonCPF.CartesianProducts(h)
	if len(prods) != 2 {
		t.Errorf("Figure 1 has %d Cartesian products, want 2", len(prods))
	}
	if len(cpf.CartesianProducts(h)) != 0 {
		t.Error("CPF tree has Cartesian products")
	}
}

// TestCPFNodesConnected checks the paper's §2.4 equivalence: a tree is CPF
// iff every node is a connected database scheme.
func TestCPFNodesConnected(t *testing.T) {
	h := paperScheme(t)
	trees, err := AllTrees(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		want := allNodesConnected(tr, h)
		if got := tr.IsCPF(h); got != want {
			t.Fatalf("IsCPF(%s) = %v, but nodes-connected = %v", tr.String(h), got, want)
		}
	}
}

func allNodesConnected(t *Tree, h *hypergraph.Hypergraph) bool {
	if !h.Connected(t.Mask()) {
		return false
	}
	if t.IsLeaf() {
		return true
	}
	return allNodesConnected(t.Left, h) && allNodesConnected(t.Right, h)
}

func TestIsLinear(t *testing.T) {
	lin := NewJoin(NewJoin(NewJoin(NewLeaf(0), NewLeaf(1)), NewLeaf(2)), NewLeaf(3))
	if !lin.IsLinear() {
		t.Error("left-deep tree not linear")
	}
	mirrored := NewJoin(NewLeaf(3), NewJoin(NewLeaf(2), NewJoin(NewLeaf(0), NewLeaf(1))))
	if !mirrored.IsLinear() {
		t.Error("right-deep tree not linear")
	}
	bushy := NewJoin(NewJoin(NewLeaf(0), NewLeaf(1)), NewJoin(NewLeaf(2), NewLeaf(3)))
	if bushy.IsLinear() {
		t.Error("bushy tree reported linear")
	}
	if !NewLeaf(0).IsLinear() {
		t.Error("leaf not linear")
	}
}

func TestEqualCloneCanon(t *testing.T) {
	a := NewJoin(NewLeaf(0), NewJoin(NewLeaf(1), NewLeaf(2)))
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Right.Left = NewLeaf(9)
	if a.Equal(b) {
		t.Error("mutated clone still equal (shallow clone?)")
	}
	c := NewJoin(NewJoin(NewLeaf(1), NewLeaf(2)), NewLeaf(0))
	if a.Equal(c) {
		t.Error("operand-swapped tree equal under ordered Equal")
	}
	if a.Canon() == c.Canon() {
		t.Error("ordered canon should distinguish operand order")
	}
}

// cycleDB builds the small Example-3-style database used across tests.
func cycleDB(t *testing.T, m, p int64) *relation.Database {
	t.Helper()
	mk := func(scheme string) *relation.Relation { return relation.New(relation.SchemaOfRunes(scheme)) }
	r1, r2, r3, r4 := mk("ABC"), mk("CDE"), mk("EFG"), mk("GHA")
	for link := int64(0); link < m; link++ {
		next := (link + 1) % m
		for pay := int64(0); pay < p; pay++ {
			for _, r := range []*relation.Relation{r1, r2, r3, r4} {
				r.MustInsert(relation.Ints(link, pay, next))
			}
		}
	}
	for _, r := range []*relation.Relation{r1, r2, r3, r4} {
		r.MustInsert(relation.Ints(-1, 0, -1))
	}
	return relation.MustDatabase(r1, r2, r3, r4)
}

func TestEvalCostModel(t *testing.T) {
	db := cycleDB(t, 3, 2)
	h := paperScheme(t)
	// Leaf cost is the relation size.
	leaf := NewLeaf(0)
	out, cost := leaf.Eval(db)
	if cost != db.Relation(0).Len() || out.Len() != cost {
		t.Errorf("leaf cost = %d", cost)
	}
	// Join cost per §2.3: |E(D)| + cost(E1) + cost(E2).
	tr := MustParse(h, "(ABC ⋈ CDE) ⋈ (EFG ⋈ GHA)")
	out, cost = tr.Eval(db)
	lOut, lCost := tr.Left.Eval(db)
	rOut, rCost := tr.Right.Eval(db)
	_ = lOut
	_ = rOut
	if cost != out.Len()+lCost+rCost {
		t.Errorf("cost = %d, want %d", cost, out.Len()+lCost+rCost)
	}
	if got := tr.Cost(db); got != cost {
		t.Errorf("Cost = %d, want %d", got, cost)
	}
	// Every tree over D evaluates to the same result.
	want := db.Join()
	if !out.Equal(want) {
		t.Error("tree evaluation != ⋈D")
	}
}

func TestEvalAllTreesSameResult(t *testing.T) {
	h := paperScheme(t)
	db := cycleDB(t, 3, 1)
	want := db.Join()
	trees, err := AllTrees(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	// Check a sample of 50 trees (evaluating all 120 is fine too, but the
	// sample keeps the test fast while varying by seed).
	for i := 0; i < 50; i++ {
		tr := trees[rng.Intn(len(trees))]
		out, cost := tr.Eval(db)
		if !out.Equal(want) {
			t.Fatalf("tree %s evaluated wrong", tr.String(h))
		}
		if cost < db.TotalTuples()+want.Len() {
			t.Fatalf("cost %d below inputs+output lower bound", cost)
		}
	}
}
