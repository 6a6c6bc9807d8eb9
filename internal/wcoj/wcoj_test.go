package wcoj_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/obs"
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

// TestParallelMatchesSequential runs each input traced at 1, 2, 3, 4 and 8
// workers and requires the parallel runs to reproduce the sequential one
// exactly: the same rows in the same order, the same governor charge, and
// the same per-variable binding counts on the trace's var spans. The inputs
// are a random 4-clique and Zipf-skewed triangles and 4-cycles, whose
// lopsided child ranges send the intersection down both its merge and its
// probe paths.
func TestParallelMatchesSequential(t *testing.T) {
	type input struct {
		name string
		h    *hypergraph.Hypergraph
		db   *relation.Database
	}
	clique, err := workload.CliqueScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.RandomDatabase(rand.New(rand.NewSource(9)), clique, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []input{{"clique4", clique, db}}
	for _, scheme := range []string{"AB BC AC", "AB BC CD AD"} {
		h, err := hypergraph.ParseScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []float64{1.1, 1.5} {
			db, err := workload.ZipfDatabase(rand.New(rand.NewSource(46)), h, 1500, 400, s)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("zipf %s s=%.1f", scheme, s), h, db})
		}
	}
	type run struct {
		res      *wcoj.Result
		produced int64
		bindings []int64
	}
	joinTraced := func(in input, workers int) run {
		t.Helper()
		tr := obs.NewTrace("wcoj")
		gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
		gov.SetSpan(tr.Root)
		res, err := wcoj.JoinGoverned(in.db, wcoj.VariableOrder(in.h), gov, workers)
		tr.Root.End()
		if err != nil {
			t.Fatalf("%s workers=%d: %v", in.name, workers, err)
		}
		return run{res, gov.Produced(), varBindings(t, tr.Root)}
	}
	for _, in := range inputs {
		seq := joinTraced(in, 1)
		if seq.res.Output.Len() == 0 {
			t.Fatalf("%s: empty join tests nothing", in.name)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			par := joinTraced(in, workers)
			if !sameRows(par.res.Output, seq.res.Output) {
				t.Errorf("%s workers=%d: rows or row order differ from sequential", in.name, workers)
			}
			if par.produced != seq.produced {
				t.Errorf("%s workers=%d: Produced = %d, sequential charged %d", in.name, workers, par.produced, seq.produced)
			}
			if !slices.Equal(par.bindings, seq.bindings) {
				t.Errorf("%s workers=%d: per-variable bindings %v, sequential %v", in.name, workers, par.bindings, seq.bindings)
			}
		}
	}
}

// varBindings reads the per-variable binding counts off a trace's var spans,
// in variable order.
func varBindings(t *testing.T, root *obs.Span) []int64 {
	t.Helper()
	var counts []int64
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Kind() != obs.KindVar {
			return
		}
		var n int64
		if _, err := fmt.Sscanf(sp.Notes()[0], "%d bindings examined", &n); err != nil {
			t.Fatalf("var span %q: %v", sp.Name(), err)
		}
		counts = append(counts, n)
	})
	return counts
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
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	gov := govern.New(govern.Limits{Context: ctx})
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
