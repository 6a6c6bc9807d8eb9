package repro

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/relation"
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

// TestEndToEndTextInterfaces round-trips the textual surfaces: join
// expression parser, program parser/printer, TSV relations.
func TestEndToEndTextInterfaces(t *testing.T) {
	h, err := hypergraph.ParseScheme("ABC CDE EFG GHA")
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Derive(jointree.MustParse(h, "((ABC ⋈ CDE) ⋈ EFG) ⋈ GHA"), h)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := program.Parse(d.Program.String(), d.Program.Inputs, d.Program.Output)
	if err != nil {
		t.Fatalf("program text did not round-trip: %v", err)
	}
	if reparsed.String() != d.Program.String() {
		t.Fatal("program text changed across a round trip")
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
