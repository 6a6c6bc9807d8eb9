package wcoj

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relation"
)

// randPairs draws n pairs over attributes a, b with values in [lo, lo+span).
func randPairs(rng *rand.Rand, a, b string, n int, lo, span int64) *relation.Relation {
	r := relation.New(relation.MustSchema(a, b))
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Ints(lo+rng.Int63n(span), lo+rng.Int63n(span)))
	}
	return r
}

// slotOf returns the alignment memoized on level d of rel's trie for order.
func slotOf(t *testing.T, rel *relation.Relation, order []string, d int) *levelAlign {
	t.Helper()
	tr, err := FromColumns(rel, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo, _ := tr.trie.Slot(d).Load().(*levelAlign)
	return memo
}

// TestAlignmentMemoFollowsReplacedRelation replaces one relation of a
// database, as ingest does, and joins again: the alignment memoized on the
// untouched relations must be recomputed exactly for the variables the
// replaced relation carries, reused for the others, and every result must
// be db.Join().
func TestAlignmentMemoFollowsReplacedRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(2050))
	r := randPairs(rng, "A", "B", 60, 0, 12)
	s := randPairs(rng, "B", "C", 60, 0, 12)
	u := randPairs(rng, "A", "C", 60, 0, 12)
	order := []string{"A", "B", "C"}
	join := func(db *relation.Database) {
		t.Helper()
		res, err := JoinGoverned(db, order, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Output.Equal(db.Join()) {
			t.Fatalf("wcoj join differs from db.Join() on %s", db)
		}
	}

	before := relation.MustDatabase(r, s, u)
	join(before)
	a, b := slotOf(t, r, order, 0), slotOf(t, r, order, 1)
	if a == nil || b == nil {
		t.Fatal("the join left no alignment on R's levels")
	}
	join(before)
	if slotOf(t, r, order, 0) != a || slotOf(t, r, order, 1) != b {
		t.Fatal("a join over the same relations recomputed the alignment")
	}

	// S' holds values below every value of S, so R's B codes align to
	// other positions in the merged domain.
	after := relation.MustDatabase(r, randPairs(rng, "B", "C", 60, -6, 12), u)
	join(after)
	if slotOf(t, r, order, 0) != a {
		t.Fatal("replacing S recomputed R's A level, which S does not carry")
	}
	nb := slotOf(t, r, order, 1)
	if nb == b || len(nb.dom) == len(b.dom) {
		t.Fatalf("replacing S left R's B level on the old domain (%d values, was %d)", len(nb.dom), len(b.dom))
	}
	// Back to S: both B slots are filled, but R's was left by S'.
	join(before)
	if slotOf(t, r, order, 1) == nb {
		t.Fatal("joining with S again kept R's B level aligned for S'")
	}
}

// TestAlignmentMemoConcurrentFlip queries two operand sets that share one
// relation from several goroutines at once (run with -race), so the shared
// relation's slots flip between the two alignments while other queries read
// them. The second set holds values below the first's, so the shared
// relation's codes align to other positions in each. Every result must
// stay exact.
func TestAlignmentMemoConcurrentFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(2051))
	r := randPairs(rng, "A", "B", 200, 0, 40)
	dbs := []*relation.Database{
		relation.MustDatabase(r, randPairs(rng, "B", "C", 200, 0, 40), randPairs(rng, "A", "C", 200, 0, 40)),
		relation.MustDatabase(r, randPairs(rng, "B", "C", 200, -20, 40), randPairs(rng, "A", "C", 200, -10, 40)),
	}
	order := []string{"A", "B", "C"}
	want := []*relation.Relation{dbs[0].Join(), dbs[1].Join()}
	const goroutines, rounds = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % 2
				res, err := JoinGoverned(dbs[k], order, nil, 1+g%2)
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Output.Equal(want[k]) {
					t.Errorf("goroutine %d round %d: operand set %d joined wrong", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
