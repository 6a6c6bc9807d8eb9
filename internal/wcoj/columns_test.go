package wcoj

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
)

// randTrieRel draws a random relation over a prefix of the given attrs and
// a random permutation order covering them.
func randTrieRel(rng *rand.Rand, size int) (*relation.Relation, []string) {
	attrs := []string{"A", "B", "C", "D"}[:1+rng.Intn(4)]
	schema := relation.MustSchema(attrs...)
	r := relation.New(schema)
	for i := 0; i < size; i++ {
		row := make(relation.Tuple, len(attrs))
		for c := range row {
			row[c] = relation.Int(int64(rng.Intn(5)))
		}
		r.MustInsert(row)
	}
	order := append([]string(nil), attrs...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return r, order
}

// TestFromColumnsIsSortedResidentBlock pins what the trie is: the relation's
// own tuple set, columns in variable order, rows strictly ascending by code
// — and that it is built once per relation snapshot: the second request
// returns the same sorted block, reports it resident, and charges the same.
func TestFromColumnsIsSortedResidentBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(2031))
	for trial := 0; trial < 200; trial++ {
		r, order := randTrieRel(rng, rng.Intn(50))

		var tries [2]*trieIndex
		for pass := range tries {
			g := govern.New(govern.Limits{MaxTuples: 1 << 40})
			scope, err := g.Begin("wcoj.trie")
			if err != nil {
				t.Fatal(err)
			}
			tr, err := FromColumns(r, order, scope)
			if err != nil {
				t.Fatalf("trial %d pass %d: %v", trial, pass, err)
			}
			if g.Produced() != int64(r.Len()) {
				t.Fatalf("trial %d pass %d: charged %d, relation has %d tuples", trial, pass, g.Produced(), r.Len())
			}
			tries[pass] = tr
		}
		cold, warm := tries[0], tries[1]
		if !cold.built || warm.built {
			t.Fatalf("trial %d: built = %v then %v, want true then false", trial, cold.built, warm.built)
		}
		if cold.block != warm.block {
			t.Fatalf("trial %d: second request built a second sorted block", trial)
		}

		b := cold.block
		if err := b.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := b.Schema().Attrs(); !slices.Equal(got, order) {
			t.Fatalf("trial %d: levels %v, want %v", trial, got, order)
		}
		if !b.ToRelation().Equal(r) {
			t.Fatalf("trial %d: sorted block is not the relation", trial)
		}
		for i := 1; i < b.Len(); i++ {
			if compareCodes(b, i-1, i) >= 0 {
				t.Fatalf("trial %d: rows %d and %d out of order", trial, i-1, i)
			}
		}
	}
}

// compareCodes orders rows i and j of b lexicographically by code.
func compareCodes(b *relation.ColBlock, i, j int) int {
	for c := 0; c < b.Schema().Len(); c++ {
		codes := b.Codes(c)
		if codes[i] != codes[j] {
			if codes[i] < codes[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// TestFromColumnsAbortParity checks a budget one entry short of the
// relation aborts with the same LimitError whether the index is resident or
// not, and that the cold abort happens before anything is built.
func TestFromColumnsAbortParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2032))
	r, order := randTrieRel(rng, 30)
	n := int64(r.Len())
	abort := func() *govern.LimitError {
		t.Helper()
		g := govern.New(govern.Limits{MaxTuples: n - 1, CheckEvery: 1})
		scope, err := g.Begin("wcoj.trie")
		if err != nil {
			t.Fatal(err)
		}
		_, err = FromColumns(r, order, scope)
		var le *govern.LimitError
		if !errors.Is(err, govern.ErrTupleBudget) || !errors.As(err, &le) {
			t.Fatalf("want a tuple-budget LimitError one entry short, got %v", err)
		}
		return le
	}
	cold := abort()
	tr, err := FromColumns(r, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.built {
		t.Fatal("the aborted request paid for an index")
	}
	warm := abort()
	if *cold != *warm {
		t.Fatalf("cold abort %+v, warm abort %+v", *cold, *warm)
	}
	if cold.Op != "wcoj.trie" || cold.Produced != n {
		t.Fatalf("abort %+v, want op wcoj.trie at tuple %d", *cold, n)
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
	if _, err := FromColumns(db.Relation(0), []string{"A"}, nil); err == nil {
		t.Fatal("FromColumns accepted an order that does not cover the schema")
	}
}

// TestWarmJoinAllocatesOutputNotInput pins what "resident" buys: once the
// indexes sit on the relations, a sequential join of the sparse 2 000-node,
// 16 000-edge triangle (48 000 input tuples, ~500 output) allocates one
// tuple per output row plus per-query state sized by the distinct values —
// alignment tables, merged dictionaries, iterators — and nothing per input
// tuple. (Re-encoding and re-sorting every query cost 74 919 allocations and
// 11 MB here.)
func TestWarmJoinAllocatesOutputNotInput(t *testing.T) {
	db, err := workload.TriangleSpec{Nodes: 2000, Edges: 16000}.TriangleDatabase(rand.New(rand.NewSource(1992)))
	if err != nil {
		t.Fatal(err)
	}
	order := VariableOrder(hypergraph.OfScheme(db))
	res, err := JoinGoverned(db, order, govern.New(govern.Limits{MaxTuples: 1 << 40}), 1)
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
		if res, err = JoinGoverned(db, order, govern.New(govern.Limits{MaxTuples: 1 << 40}), 1); err != nil {
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
	if limit := uint64(1 << 20); bytes > limit {
		t.Errorf("warm join allocates %d bytes, want at most %d (the input is %d tuples)", bytes, limit, db.TotalTuples())
	}
}
