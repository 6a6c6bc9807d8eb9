package wcoj

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/govern"
	"repro/internal/relation"
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
