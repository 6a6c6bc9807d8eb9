package relation

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
)

// The resident-encoding tests. A relation keeps its ColBlock, and the block
// its sorted runs, for as long as the rows they encode cannot change; these
// tests pin that a block is never stale — the property every "encode once,
// query many" reader stands on.

// checkBlock asserts r.Block() is a valid encoding of exactly r's current
// rows, i.e. observably FromRelation(r).
func checkBlock(t *testing.T, r *Relation, when string) *ColBlock {
	t.Helper()
	b := r.Block()
	if err := b.Validate(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if b.Len() != r.Len() || !b.ToRelation().Equal(r) {
		t.Fatalf("%s: block holds %d rows, relation %d, or the sets differ", when, b.Len(), r.Len())
	}
	if fresh := FromRelation(r); !fresh.ToRelation().Equal(b.ToRelation()) {
		t.Fatalf("%s: Block() and FromRelation disagree", when)
	}
	return b
}

func TestBlockIsMemoizedAndNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(2040))
	r := randRel(rng, "ABC", 40, 4)
	b := checkBlock(t, r, "fresh")
	if r.Block() != b {
		t.Fatal("second Block() built a second encoding")
	}

	// A duplicate insert changes nothing; a new row must be in the next
	// block.
	r.MustInsert(r.Rows()[0])
	checkBlock(t, r, "after duplicate insert")
	r.MustInsert(Ints(100, 101, 102))
	after := checkBlock(t, r, "after insert")
	if after == b {
		t.Fatal("Insert kept the stale block")
	}
	if _, ok := after.FindCode(0, Int(100)); !ok {
		t.Fatal("block after Insert lacks the inserted value")
	}

	// A clone encodes for itself: mutating it leaves the original's block
	// alone.
	c := r.Clone()
	cb := checkBlock(t, c, "clone")
	if cb == after {
		t.Fatal("Clone shares the original's block")
	}
	c.MustInsert(Ints(200, 201, 202))
	checkBlock(t, c, "clone after insert")
	if r.Block() != after {
		t.Fatal("inserting into the clone dropped the original's block")
	}
	checkBlock(t, r, "original after clone insert")

	// UnmarshalJSON replaces the rows of a relation whose block was in use.
	wire, err := json.Marshal(randRel(rng, "ABC", 25, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wire, r); err != nil {
		t.Fatal(err)
	}
	if checkBlock(t, r, "after UnmarshalJSON") == after {
		t.Fatal("UnmarshalJSON kept the stale block")
	}
}

func TestSortedByMemoizesPerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2041))
	r := randRel(rng, "ABC", 60, 5)
	b := r.Block()
	orders := [][]string{{"A", "B", "C"}, {"C", "A", "B"}, {"B", "C", "A"}}
	runs := make([]*ColBlock, len(orders))
	for i, order := range orders {
		s, built, err := b.SortedBy(order)
		if err != nil || !built {
			t.Fatalf("order %v: built=%v err=%v", order, built, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if !s.ToRelation().Equal(r) {
			t.Fatalf("order %v: sorted run is not the relation", order)
		}
		for c, a := range order {
			if s.Schema().Attr(c) != a {
				t.Fatalf("order %v: schema %s", order, s.Schema())
			}
		}
		for row := 1; row < s.Len(); row++ {
			less := false
			for c := range order {
				if x, y := s.Codes(c)[row-1], s.Codes(c)[row]; x != y {
					less = x < y
					break
				}
			}
			if !less {
				t.Fatalf("order %v: rows %d, %d not strictly ascending", order, row-1, row)
			}
		}
		runs[i] = s
	}
	for i, order := range orders {
		s, built, err := b.SortedBy(order)
		if err != nil || built || s != runs[i] {
			t.Fatalf("order %v: second request rebuilt (built=%v, same=%v, err=%v)", order, built, s == runs[i], err)
		}
	}
	for _, bad := range [][]string{{"A", "B"}, {"A", "B", "Z"}, {"A", "B", "B"}, {"A", "B", "C", "A"}} {
		if _, _, err := b.SortedBy(bad); err == nil {
			t.Errorf("order %v accepted", bad)
		}
	}
}

// TestBlockMemoConcurrentFirstUse races first readers (run with -race): all
// of them must end up on one block and one sorted run per order.
func TestBlockMemoConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(2042))
	for trial := 0; trial < 20; trial++ {
		r := randRel(rng, "ABC", 200, 6)
		orders := [][]string{{"A", "B", "C"}, {"C", "B", "A"}}
		const readers = 8
		blocks := make([]*ColBlock, readers)
		runs := make([][2]*ColBlock, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				blocks[g] = r.Block()
				for o, order := range orders {
					s, _, err := blocks[g].SortedBy(order)
					if err != nil {
						t.Error(err)
						return
					}
					runs[g][o] = s
				}
			}(g)
		}
		wg.Wait()
		for g := 1; g < readers; g++ {
			if blocks[g] != blocks[0] || runs[g] != runs[0] {
				t.Fatalf("trial %d: reader %d kept its own encoding", trial, g)
			}
		}
		if blocks[0] != r.Block() {
			t.Fatalf("trial %d: the retained block is not the one readers got", trial)
		}
	}
}
