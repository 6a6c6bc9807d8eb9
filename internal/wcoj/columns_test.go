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

// TestFromColumnsIsResidentTrie pins what the trie is: the relation's own
// tuple set as a CSR trie along the variable order — keys strictly
// ascending within every node's child range, offsets monotone from 0 to the
// next level's size, one leaf per tuple, root-to-leaf paths decoding to
// exactly the relation — and that it is built once per relation snapshot:
// the second request returns the same trie, reports it resident, and
// charges the same. Orders that miss or repeat an attribute are rejected.
func TestFromColumnsIsResidentTrie(t *testing.T) {
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
		if cold.trie != warm.trie {
			t.Fatalf("trial %d: second request built a second trie", trial)
		}

		trie := cold.trie
		if got := trie.Schema().Attrs(); !slices.Equal(got, order) {
			t.Fatalf("trial %d: levels %v, want %v", trial, got, order)
		}
		k := len(order)
		for d := 0; d < k-1; d++ {
			start := trie.Start(d)
			if len(start) != len(trie.Keys(d))+1 || start[0] != 0 || int(start[len(start)-1]) != len(trie.Keys(d+1)) {
				t.Fatalf("trial %d: level %d offsets do not span level %d", trial, d, d+1)
			}
			for i := 1; i < len(start); i++ {
				if start[i-1] > start[i] {
					t.Fatalf("trial %d: level %d offsets descend at %d", trial, d, i)
				}
			}
		}
		if leaves := len(trie.Keys(k - 1)); leaves != r.Len() {
			t.Fatalf("trial %d: %d leaves, relation has %d tuples", trial, leaves, r.Len())
		}
		paths := relation.New(relation.MustSchema(order...))
		row := make(relation.Tuple, k)
		var walk func(d, lo, hi int)
		walk = func(d, lo, hi int) {
			keys := trie.Keys(d)
			for i := lo; i < hi; i++ {
				if i > lo && keys[i-1] >= keys[i] {
					t.Fatalf("trial %d: level %d keys not strictly ascending at %d", trial, d, i)
				}
				row[d] = trie.Dict(d)[keys[i]]
				if d == k-1 {
					paths.MustInsert(slices.Clone(row))
				} else {
					walk(d+1, int(trie.Start(d)[i]), int(trie.Start(d)[i+1]))
				}
			}
		}
		walk(0, 0, len(trie.Keys(0)))
		if !paths.Equal(r) {
			t.Fatalf("trial %d: root-to-leaf paths are not the relation", trial)
		}

		// The global order may name other variables, but must name each of
		// the relation's attributes exactly once.
		for _, bad := range [][]string{order[1:], append(slices.Clone(order), order[0])} {
			if _, err := FromColumns(r, bad, nil); err == nil {
				t.Fatalf("trial %d: order %v accepted for schema %s", trial, bad, r.Schema())
			}
		}
	}
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
