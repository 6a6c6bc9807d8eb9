package wcoj

import (
	"math/rand"
	"slices"
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

// checkMemos fails unless every memoized level of rel's trie for order
// holds its node keys mapped through the alignment table of its dictionary
// into the memo's domain and, at level 0 only, the successor table of
// those keys over that domain.
func checkMemos(t *testing.T, rel *relation.Relation, order []string) {
	t.Helper()
	tr, err := FromColumns(rel, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < tr.trie.Schema().Len(); d++ {
		memo, _ := tr.trie.Slot(d).Load().(*levelAlign)
		if memo == nil {
			t.Fatalf("%s level %d: no alignment memo", rel.Schema(), d)
		}
		table := alignTable(tr.trie.Dict(d), memo.dom)
		local := tr.trie.Keys(d)
		want := make([]uint32, len(local))
		for i, c := range local {
			want[i] = table[c]
		}
		if !slices.Equal(memo.keys, want) {
			t.Fatalf("%s level %d: memo keys %v, want the alignment table applied to the trie's keys %v", rel.Schema(), d, memo.keys, want)
		}
		if d > 0 {
			if memo.succ != nil {
				t.Fatalf("%s level %d: a deeper level holds a successor table", rel.Schema(), d)
			}
			continue
		}
		if len(memo.succ) != len(memo.dom)+1 {
			t.Fatalf("%s: successor table has %d entries, want |dom|+1 = %d", rel.Schema(), len(memo.succ), len(memo.dom)+1)
		}
		for c, p := range memo.succ {
			if first, _ := slices.BinarySearch(memo.keys, uint32(c)); int(p) != first {
				t.Fatalf("%s: succ[%d] = %d, want %d", rel.Schema(), c, p, first)
			}
		}
	}
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
		for _, rel := range db.Relations() {
			checkMemos(t, rel, order)
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

// TestRootProbeMatchesGallop aligns random tries against a wider domain
// and checks that a level-0 operand's probe, which reads the successor
// table, lands where a gallop over the aligned keys lands, for every aligned
// code from every level-0 position — every code above the position's key,
// as a probe only ever moves forward — and reports whether it stayed in
// range.
func TestRootProbeMatchesGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(2052))
	order := []string{"A", "B"}
	for trial := 0; trial < 20; trial++ {
		rel := randPairs(rng, "A", "B", 1+rng.Intn(60), 0, 1+rng.Int63n(30))
		wide := relation.New(relation.MustSchema("A"))
		for i := 0; i < 40; i++ {
			wide.MustInsert(relation.Ints(rng.Int63n(50) - 10))
		}
		tr, err := FromColumns(rel, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, err := FromColumns(wide, order[:1], nil)
		if err != nil {
			t.Fatal(err)
		}
		doms := alignTries(order, []*trieIndex{tr, w})
		op := newExecutor(order, []*trieIndex{tr, w}, nil, nil).ops[0][0]
		keys := tr.keys[0]
		if op.succ == nil || !slices.Equal(op.keys, keys) {
			t.Fatal("R's level-0 operand does not read its aligned keys through a successor table")
		}
		for from := 0; from < len(keys); from++ {
			for a := keys[from] + 1; int(a) < len(doms[0]); a++ {
				op.lo, op.hi = from, len(keys)
				in := op.seek(a)
				want := gallop(keys, from, len(keys), a)
				if op.lo != want || in != (want < len(keys)) {
					t.Fatalf("trial %d: probe(%d) from %d landed on %d (in range %v), gallop on %d (keys %v)", trial, a, from, op.lo, in, want, keys)
				}
			}
		}
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
