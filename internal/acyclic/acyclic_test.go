package acyclic

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/workload"
)

func TestFullReducerOnDanglingChain(t *testing.T) {
	db, err := workload.DanglingChainDatabase(4, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	reduced, cost, err := Reduce(db)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("reduction cost not accounted")
	}
	// After full reduction the database is globally consistent.
	if !reduced.GloballyConsistent() {
		t.Error("full reducer did not achieve global consistency")
	}
	// The dangling tuples are gone; the join is unchanged.
	if !reduced.Join().Equal(db.Join()) {
		t.Error("full reducer changed the join")
	}
	for i := 0; i < db.Len(); i++ {
		if reduced.Relation(i).Len() >= db.Relation(i).Len() {
			t.Errorf("relation %d not reduced (%d vs %d)", i,
				reduced.Relation(i).Len(), db.Relation(i).Len())
		}
	}
	// The original database is untouched.
	if db.Relation(0).Len() != 11+6 {
		t.Error("Reduce mutated its input")
	}
}

func TestFullReducerUselessOnPairwiseConsistentCycleProjection(t *testing.T) {
	// The paper's Example 3 remark: on a pairwise-consistent database a
	// full reducer removes nothing. The cycle scheme itself is cyclic (no
	// reducer exists), so check the remark on an acyclic sub-scheme: drop
	// one relation from the cycle, leaving a pairwise-consistent path.
	spec := workload.UniformCycle(4, 3, 3)
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := db.Restrict([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.PairwiseConsistent() {
		t.Fatal("path restriction should be pairwise consistent")
	}
	reduced, _, err := Reduce(sub)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sub.Len(); i++ {
		if reduced.Relation(i).Len() != sub.Relation(i).Len() {
			t.Errorf("full reducer removed tuples from a pairwise-consistent acyclic database (relation %d)", i)
		}
	}
}

func TestFullReducerRejectsCyclic(t *testing.T) {
	spec := workload.UniformCycle(4, 2, 2)
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Reduce(db); err == nil {
		t.Error("Reduce accepted a cyclic scheme")
	}
	h := hypergraph.OfScheme(db)
	if _, _, err := FullReducer(h); err == nil {
		t.Error("FullReducer accepted a cyclic scheme")
	}
}

func TestFullReducerProgramShape(t *testing.T) {
	h, err := workload.ChainScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	p, jt, err := FullReducer(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("reducer program invalid: %v", err)
	}
	// 2(n−1) semijoins for a chain of n relations.
	if p.Len() != 2*(h.Len()-1) {
		t.Errorf("reducer has %d statements, want %d", p.Len(), 2*(h.Len()-1))
	}
	if err := jt.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneTreeNoOvershoot(t *testing.T) {
	// On a fully reduced (globally consistent) database, the monotone join
	// expression's intermediates never exceed the final join size.
	db, err := workload.DanglingChainDatabase(4, 15, 8)
	if err != nil {
		t.Fatal(err)
	}
	reduced, _, err := Reduce(db)
	if err != nil {
		t.Fatal(err)
	}
	h := hypergraph.OfScheme(reduced)
	jt, ok := h.GYO()
	if !ok {
		t.Fatal("chain reported cyclic")
	}
	tree := MonotoneTree(jt)
	if err := tree.Validate(h); err != nil {
		t.Fatal(err)
	}
	final := reduced.Join()
	checkMonotone(t, tree, reduced, final.Len())
}

// checkMonotone asserts every internal node result of tree on db has at
// most bound tuples.
func checkMonotone(t *testing.T, tree *jointree.Tree, db *relation.Database, bound int) {
	t.Helper()
	var walk func(n *jointree.Tree) *relation.Relation
	walk = func(n *jointree.Tree) *relation.Relation {
		if n.IsLeaf() {
			return db.Relation(n.Leaf)
		}
		out := relation.Join(walk(n.Left), walk(n.Right))
		if out.Len() > bound {
			t.Errorf("monotone intermediate has %d tuples, final join has %d", out.Len(), bound)
		}
		return out
	}
	walk(tree)
}

func TestAcyclicJoin(t *testing.T) {
	db, err := workload.DanglingChainDatabase(5, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, cost, err := Join(db)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Join()
	if !got.Equal(want) {
		t.Error("acyclic Join wrong")
	}
	if cost <= 0 {
		t.Error("cost not accounted")
	}
	// The classical pipeline's cost is polynomial: on the reduced database
	// no intermediate exceeds the output, so the join phase costs at most
	// inputs + (n−1)·|output|.
	reduced, reduceCost, err := Reduce(db)
	if err != nil {
		t.Fatal(err)
	}
	maxJoinPhase := reduced.TotalTuples() + (db.Len()-1)*want.Len()
	if cost > reduceCost+maxJoinPhase {
		t.Errorf("cost %d exceeds the monotone bound %d", cost, reduceCost+maxJoinPhase)
	}
}

func TestYannakakis(t *testing.T) {
	db, err := workload.DanglingChainDatabase(4, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.NewAttrSet("x0", "x4")
	got, cost, err := Yannakakis(db, out)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustProject(db.Join(), out)
	if !got.Equal(want) {
		t.Errorf("Yannakakis = %s, want %s", got, want)
	}
	if cost <= 0 {
		t.Error("cost not accounted")
	}
}

func TestYannakakisFullProjection(t *testing.T) {
	db, err := workload.ChainDatabase(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	all := hypergraph.OfScheme(db).Attrs()
	got, _, err := Yannakakis(db, all)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Join()) {
		t.Error("Yannakakis with full projection != ⋈D")
	}
}

func TestYannakakisRejectsBadAttrs(t *testing.T) {
	db, err := workload.ChainDatabase(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Yannakakis(db, relation.NewAttrSet("nope")); err == nil {
		t.Error("unknown output attribute accepted")
	}
	if _, _, err := Yannakakis(db, nil); err != nil {
		t.Errorf("empty projection should be allowed: %v", err)
	}
}

func TestYannakakisOnStar(t *testing.T) {
	h := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("hub", "x1"), relation.NewAttrSet("hub", "x2"),
		relation.NewAttrSet("hub", "x3"), relation.NewAttrSet("hub", "x4"),
	})
	rng := rand.New(rand.NewSource(9))
	db, err := workload.RandomDatabase(rng, h, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.NewAttrSet("x1", "x3")
	got, _, err := Yannakakis(db, out)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustProject(db.Join(), out)
	if !got.Equal(want) {
		t.Error("Yannakakis wrong on star scheme")
	}
}

func TestReduceRandomizedAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tested := 0
	for trial := 0; trial < 200 && tested < 30; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(4), Attrs: 5, MaxArity: 3, Connected: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !h.Acyclic() {
			continue
		}
		tested++
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(15), 3)
		if err != nil {
			t.Fatal(err)
		}
		reduced, _, err := Reduce(db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reduced.Join().Equal(db.Join()) {
			t.Fatalf("trial %d: reduction changed the join on %s", trial, h)
		}
		if !reduced.GloballyConsistentWith(reduced.Join()) {
			t.Fatalf("trial %d: reduced database not globally consistent on %s", trial, h)
		}
		// Yannakakis agrees with project-of-join for a random projection.
		attrs := h.Attrs()
		var out relation.AttrSet
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				out = out.Union(relation.NewAttrSet(a))
			}
		}
		got, _, err := Yannakakis(db, out)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := relation.MustProject(db.Join(), out)
		if !got.Equal(want) {
			t.Fatalf("trial %d: Yannakakis wrong on %s over %s", trial, h, out)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d acyclic trials", tested)
	}
}

func TestFullReducerSingleRelation(t *testing.T) {
	h, err := workload.ChainScheme(1)
	if err != nil {
		t.Fatal(err)
	}
	p, jt, err := FullReducer(h)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Errorf("single-relation reducer has %d statements", p.Len())
	}
	if jt.Root != 0 || len(jt.RemovalOrder) != 0 {
		t.Errorf("join tree = %+v", jt)
	}
	db, err := workload.ChainDatabase(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	reduced, _, err := Reduce(db)
	if err != nil {
		t.Fatal(err)
	}
	if !reduced.Relation(0).Equal(db.Relation(0)) {
		t.Error("single relation changed under reduction")
	}
}
