package wcoj_test

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// join is the ungoverned, sequential wcoj join's output.
func join(db *relation.Database, order []string) (*relation.Relation, error) {
	res, err := wcoj.JoinGoverned(db, order, nil, 1)
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// triangleDB builds the classic triangle query R(A,B) ⋈ S(B,C) ⋈ T(A,C)
// with edges of the small graph 0–1, 0–2, 1–2, 1–3: triangles {0,1,2} only.
func triangleDB(t *testing.T) *relation.Database {
	t.Helper()
	edges := [][2]int64{{0, 1}, {0, 2}, {1, 2}, {1, 3}}
	mk := func(a, b string) *relation.Relation {
		r := relation.New(relation.MustSchema(a, b))
		for _, e := range edges {
			r.MustInsert(relation.Ints(e[0], e[1]))
		}
		return r
	}
	return relation.MustDatabase(mk("A", "B"), mk("B", "C"), mk("A", "C"))
}

func TestTriangleKnownResult(t *testing.T) {
	db := triangleDB(t)
	order := wcoj.VariableOrder(hypergraph.OfScheme(db))
	out, err := join(db, order)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("triangle count = %d, want 1", out.Len())
	}
	if !out.Equal(db.Join()) {
		t.Error("triangle join disagrees with the reference fold")
	}
}

func TestExample3Agrees(t *testing.T) {
	spec, err := workload.Example3(6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	order := wcoj.VariableOrder(hypergraph.OfScheme(db))
	out, err := join(db, order)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(db.Join()) {
		t.Errorf("Example 3 join wrong: %d tuples, want %d", out.Len(), db.Join().Len())
	}
}

func TestAcyclicChainAgrees(t *testing.T) {
	db, err := workload.ChainDatabase(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	order := wcoj.VariableOrder(hypergraph.OfScheme(db))
	out, err := join(db, order)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(db.Join()) {
		t.Error("chain join disagrees with the reference fold")
	}
}

func TestEmptyRelationEmptyJoin(t *testing.T) {
	db := triangleDB(t)
	empty := relation.New(relation.MustSchema("A", "C"))
	db = relation.MustDatabase(db.Relation(0), db.Relation(1), empty)
	out, err := join(db, wcoj.VariableOrder(hypergraph.OfScheme(db)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("join with an empty relation has %d tuples", out.Len())
	}
}

func TestSingleRelation(t *testing.T) {
	r := relation.New(relation.MustSchema("B", "A"))
	r.MustInsert(relation.Ints(1, 2))
	r.MustInsert(relation.Ints(3, 4))
	db := relation.MustDatabase(r)
	out, err := join(db, wcoj.VariableOrder(hypergraph.OfScheme(db)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(r) {
		t.Error("single-relation join should be the relation itself")
	}
}

func TestOrderValidation(t *testing.T) {
	db := triangleDB(t)
	cases := [][]string{
		{"A", "B"},           // too short
		{"A", "B", "B"},      // repeat
		{"A", "B", "Z"},      // not an attribute
		{"A", "B", "C", "D"}, // too long
	}
	for _, order := range cases {
		if _, err := join(db, order); err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
	if _, err := join(nil, nil); err == nil {
		t.Error("nil database accepted")
	}
}

func TestGovernedChargesTrieAndOutput(t *testing.T) {
	db := triangleDB(t)
	gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
	res, err := wcoj.JoinGoverned(db, wcoj.VariableOrder(hypergraph.OfScheme(db)), gov, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrieTuples != int64(db.TotalTuples()) {
		t.Errorf("TrieTuples = %d, want Σ inputs = %d", res.TrieTuples, db.TotalTuples())
	}
	want := res.TrieTuples + int64(res.Output.Len())
	if got := gov.Produced(); got != want {
		t.Errorf("Produced = %d, want trie + output = %d", got, want)
	}
}

func TestGovernedMatchesUngoverned(t *testing.T) {
	spec, err := workload.Example3(4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	order := wcoj.VariableOrder(hypergraph.OfScheme(db))
	plain, err := join(db, order)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcoj.JoinGoverned(db, order, govern.New(govern.Limits{MaxTuples: 1 << 40}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(res.Output) {
		t.Error("governed run changed the result")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h, err := workload.CliqueScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.RandomDatabase(rng, h, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	order := wcoj.VariableOrder(h)
	seqGov := govern.New(govern.Limits{MaxTuples: 1 << 40})
	seq, err := wcoj.JoinGoverned(db, order, seqGov, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		parGov := govern.New(govern.Limits{MaxTuples: 1 << 40})
		par, err := wcoj.JoinGoverned(db, order, parGov, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !par.Output.Equal(seq.Output) {
			t.Errorf("workers=%d: result differs from sequential", workers)
		}
		if parGov.Produced() != seqGov.Produced() {
			t.Errorf("workers=%d: Produced = %d, sequential charged %d",
				workers, parGov.Produced(), seqGov.Produced())
		}
	}
}

func TestTupleBudgetAborts(t *testing.T) {
	db := triangleDB(t)
	// Below Σ inputs: the trie build itself must blow the budget.
	gov := govern.New(govern.Limits{MaxTuples: 3})
	if _, err := wcoj.JoinGoverned(db, wcoj.VariableOrder(hypergraph.OfScheme(db)), gov, 1); !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("want ErrTupleBudget, got %v", err)
	}
}

func TestDeadlineAborts(t *testing.T) {
	db := triangleDB(t)
	gov := govern.New(govern.Limits{Deadline: time.Now().Add(-time.Second)})
	if _, err := wcoj.JoinGoverned(db, wcoj.VariableOrder(hypergraph.OfScheme(db)), gov, 1); !errors.Is(err, govern.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestDuplicateSchemes(t *testing.T) {
	// Two relations over the same attributes intersect tuple-wise.
	a := relation.New(relation.MustSchema("X", "Y"))
	b := relation.New(relation.MustSchema("Y", "X"))
	for i := int64(0); i < 10; i++ {
		a.MustInsert(relation.Ints(i, i+1))
	}
	for i := int64(5); i < 15; i++ {
		b.MustInsert(relation.Ints(i+1, i)) // (Y, X) = (i+1, i): same pairs shifted
	}
	db := relation.MustDatabase(a, b)
	out, err := join(db, wcoj.VariableOrder(hypergraph.OfScheme(db)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(db.Join()) {
		t.Error("duplicate-scheme intersection wrong")
	}
	if out.Len() != 5 {
		t.Errorf("intersection size = %d, want 5", out.Len())
	}
}

func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(4), Attrs: 5, MaxArity: 3, Connected: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(15), 3)
		if err != nil {
			t.Fatal(err)
		}
		order := wcoj.VariableOrder(h)
		out, err := join(db, order)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !out.Equal(db.Join()) {
			t.Fatalf("trial %d: wrong result on %s", trial, h)
		}
	}
}

// TestFromColumnsRejectsBadOrder pins the validation: an order that misses
// a schema attribute is rejected.
func TestFromColumnsRejectsBadOrder(t *testing.T) {
	spec := workload.TriangleSpec{Nodes: 5, Edges: 8}
	db, err := spec.TriangleDatabase(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wcoj.FromColumns(db.Relation(0), []string{"A"}, nil); err == nil {
		t.Fatal("FromColumns accepted an order that does not cover the schema")
	}
}

// TestWarmJoinAllocatesOutputNotInput pins what "resident" buys: once the
// tries and their dictionary alignment sit on the relations, a sequential
// join of the sparse 2 000-node, 16 000-edge triangle (48 000 input tuples,
// ~500 output) allocates its output columns and per-query state sized by
// the query — iterators, alignment lookups — and nothing per input tuple or
// per dictionary entry. (Re-encoding and re-sorting every query cost 74 919
// allocations and 11 MB here; re-merging the dictionaries every query,
// about 260 KB.)
func TestWarmJoinAllocatesOutputNotInput(t *testing.T) {
	db, err := workload.TriangleSpec{Nodes: 2000, Edges: 16000}.TriangleDatabase(rand.New(rand.NewSource(1992)))
	if err != nil {
		t.Fatal(err)
	}
	order := wcoj.VariableOrder(hypergraph.OfScheme(db))
	res, err := wcoj.JoinGoverned(db, order, govern.New(govern.Limits{MaxTuples: 1 << 40}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TriesBuilt != db.Len() {
		t.Fatalf("first join built %d tries, want %d", res.TriesBuilt, db.Len())
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if res, err = wcoj.JoinGoverned(db, order, govern.New(govern.Limits{MaxTuples: 1 << 40}), 1); err != nil {
			t.Fatal(err)
		}
		if res.TriesBuilt != 0 {
			t.Fatalf("warm join built %d tries", res.TriesBuilt)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more to warm up.
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if limit := float64(res.Output.Len() + 256); allocs > limit {
		t.Errorf("warm join allocates %.0f times for %d output tuples, want at most %.0f", allocs, res.Output.Len(), limit)
	}
	t.Logf("warm join: %.0f allocations, %d bytes, %d output tuples", allocs, bytes, res.Output.Len())
	if limit := uint64(64 << 10); bytes > limit {
		t.Errorf("warm join allocates %d bytes, want at most %d (the input is %d tuples)", bytes, limit, db.TotalTuples())
	}
}
