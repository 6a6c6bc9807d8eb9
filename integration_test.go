package repro

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestEndToEndPaperPipeline is the README's quick-taste as an assertion:
// scheme → optimal-but-non-CPF expression → Algorithm 1 → Algorithm 2 →
// execution, with every paper property checked along the way.
func TestEndToEndPaperPipeline(t *testing.T) {
	h, err := hypergraph.ParseScheme("ABC CDE EFG GHA")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Example3(10)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if !db.PairwiseConsistent() || db.GloballyConsistent() {
		t.Fatal("Example-3 consistency profile wrong")
	}
	full := db.Join()
	if full.Len() != 1 {
		t.Fatalf("|⋈D| = %d", full.Len())
	}

	t1 := jointree.MustParse(h, "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)")
	if t1.IsCPF(h) {
		t.Fatal("Figure 1 tree should not be CPF")
	}
	t1Cost := t1.Cost(db)

	// The exact optimizer agrees this tree is optimal. A plan's cost
	// leaves out |⋈D|, which every expression pays at its root.
	cat := optimizer.NewCatalog(db, 0)
	opt, err := optimizer.Optimal(cat, optimizer.SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	root := int64(full.Len())
	if opt.Cost+root != int64(t1Cost) {
		t.Fatalf("optimizer cost %d + %d, Figure 1 tree cost %d", opt.Cost, root, t1Cost)
	}

	t2, err := core.CPFify(t1, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !t2.IsCPF(h) {
		t.Fatal("Algorithm 1 output not CPF")
	}
	d, err := core.Derive(t2, h)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Program.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(full) {
		t.Fatal("program output wrong")
	}
	if res.Cost >= d.QuasiFactor*t1Cost {
		t.Fatalf("Theorem 2 violated: %d ≥ %d", res.Cost, d.QuasiFactor*t1Cost)
	}
	if d.Program.Len() >= d.QuasiFactor {
		t.Fatalf("Claim C violated")
	}
	// The cheapest CPF expression is worse than the program at this scale.
	cpf, err := optimizer.Optimal(cat, optimizer.SpaceCPF)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Cost) >= cpf.Cost+root {
		t.Fatalf("program (%d) should beat the cheapest CPF expression (%d) at q=10", res.Cost, cpf.Cost+root)
	}
}

// TestEndToEndTextInterfaces round-trips a join expression through its
// text and prints the program Algorithm 2 derives from it in the paper's
// notation: the left-deep 4-cycle expression yields Example 6's program.
func TestEndToEndTextInterfaces(t *testing.T) {
	h, err := hypergraph.ParseScheme("ABC CDE EFG GHA")
	if err != nil {
		t.Fatal(err)
	}
	const expr = "((ABC ⋈ CDE) ⋈ EFG) ⋈ GHA"
	tree := jointree.MustParse(h, expr)
	if got := tree.String(h); got != expr {
		t.Fatalf("expression printed as %q, want %q", got, expr)
	}
	d, err := core.Derive(tree, h)
	if err != nil {
		t.Fatal(err)
	}
	const example6 = `R(V) := R(ABC) ⋉ R(CDE)
R(F) := π_C R(V)
R(F) := R(F) ⋈ R(CDE)
R(F) := π_CE R(F)
R(F) := R(F) ⋉ R(EFG)
R(V) := R(V) ⋈ R(F)
R(V) := R(V) ⋈ R(EFG)
R(V) := R(V) ⋉ R(GHA)
R(V) := R(V) ⋈ R(CDE)
R(V) := R(V) ⋈ R(GHA)`
	if got := d.Program.String(); got != example6 {
		t.Fatalf("derived program prints as\n%s\nwant Example 6:\n%s", got, example6)
	}
}

// TestEndToEndAcyclicAgreesWithPrograms: on an acyclic scheme both the
// classical pipeline and a derived program must produce ⋈D.
func TestEndToEndAcyclicAgreesWithPrograms(t *testing.T) {
	db, err := workload.DanglingChainDatabase(4, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	classic, _, err := acyclic.Join(db)
	if err != nil {
		t.Fatal(err)
	}
	h := hypergraph.OfScheme(db)
	rng := rand.New(rand.NewSource(12))
	tree := jointree.RandomTree(rng, h.Len())
	d, err := core.DeriveFromTree(tree, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Program.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(classic) {
		t.Fatal("derived program disagrees with the classical acyclic pipeline")
	}
	if !res.Output.Equal(db.Join()) {
		t.Fatal("both disagree with direct evaluation")
	}
}

// TestTSVBridge writes a workload relation to TSV and reads it back.
func TestTSVBridge(t *testing.T) {
	spec := workload.UniformCycle(4, 2, 3)
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := db.Relation(0).WriteTSV(&sink); err != nil {
		t.Fatal(err)
	}
	back, err := relation.ReadTSV(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(db.Relation(0)) {
		t.Fatal("TSV bridge corrupted the relation")
	}
}

// TestServedTriangleCountsAtEveryWorkerCount pins what the served benchmark's
// two triangle queries count, through service.Service without HTTP, at every
// worker count a request can ask for: intra-query workers split kernels'
// row ranges and never change a count.
func TestServedTriangleCountsAtEveryWorkerCount(t *testing.T) {
	for _, c := range []struct {
		spec                workload.TriangleSpec
		strategy            string
		cost, produced, out int64
		stmts               int
	}{
		{workload.TriangleSpec{Nodes: 90, Edges: 1600}, "program", 42032, 37232, 5721, 4},
		{workload.TriangleSpec{Nodes: 2000, Edges: 16000}, "wcoj", 48507, 48507, 507, 1},
	} {
		db, err := c.spec.TriangleDatabase(rand.New(rand.NewSource(1992)))
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Config{QueryWorkers: 4})
		if _, err := svc.Register("tri", db); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4} {
			rep, err := svc.Query(context.Background(), service.Request{Database: "tri", Strategy: c.strategy, Workers: w})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.strategy, w, err)
			}
			if rep.Cost != c.cost || rep.Produced != c.produced || int64(rep.Result.Len()) != c.out ||
				len(rep.Steps) != c.stmts || rep.Parallelism != w {
				t.Fatalf("%s, %d workers: cost %d, produced %d, %d result tuples, %d statements, parallelism %d; want %d, %d, %d, %d, %d",
					c.strategy, w, rep.Cost, rep.Produced, rep.Result.Len(), len(rep.Steps), rep.Parallelism,
					c.cost, c.produced, c.out, c.stmts, w)
			}
		}
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
