package relation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The resident-encoding tests. A relation keeps its ColBlock, and the block
// its tries, for as long as the rows they encode cannot change; these
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
	if !slices.Contains(after.Dict(0), Int(100)) {
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

// checkTrie asserts trie is r indexed along order in CSR form: levels in
// order, keys strictly ascending within every node's child range and in
// their dictionary's range, Start monotone from 0 to the next level's size,
// one leaf per tuple, and root-to-leaf paths decoding to exactly r.
func checkTrie(t *testing.T, trie *Trie, order []string, r *Relation) {
	t.Helper()
	if got := trie.Schema().Attrs(); !slices.Equal(got, order) {
		t.Fatalf("order %v: levels %v", order, got)
	}
	k := len(order)
	for d := 0; d < k-1; d++ {
		start := trie.Start(d)
		if len(start) != len(trie.Keys(d))+1 || start[0] != 0 || int(start[len(start)-1]) != len(trie.Keys(d+1)) {
			t.Fatalf("order %v: level %d has %d keys, %d offsets %v..., level %d has %d keys",
				order, d, len(trie.Keys(d)), len(start), start[:min(len(start), 4)], d+1, len(trie.Keys(d+1)))
		}
		for i := 1; i < len(start); i++ {
			if start[i-1] >= start[i] {
				t.Fatalf("order %v: level %d offsets not strictly ascending at %d", order, d, i)
			}
		}
	}
	if leaves := len(trie.Keys(k - 1)); leaves != r.Len() {
		t.Fatalf("order %v: %d leaves, relation has %d tuples", order, leaves, r.Len())
	}
	pos, err := r.Schema().Positions(order)
	if err != nil {
		t.Fatal(err)
	}
	paths := 0
	row := make(Tuple, k)
	var walk func(d, lo, hi int)
	walk = func(d, lo, hi int) {
		keys := trie.Keys(d)
		for i := lo; i < hi; i++ {
			if i > lo && keys[i-1] >= keys[i] {
				t.Fatalf("order %v: level %d keys not strictly ascending at %d", order, d, i)
			}
			if int(keys[i]) >= len(trie.Dict(d)) {
				t.Fatalf("order %v: level %d code %d out of range", order, d, keys[i])
			}
			row[pos[d]] = trie.Dict(d)[keys[i]]
			if d == k-1 {
				paths++
				if !r.Contains(row) {
					t.Fatalf("order %v: path %v is not a tuple of the relation", order, row)
				}
				continue
			}
			walk(d+1, int(trie.Start(d)[i]), int(trie.Start(d)[i+1]))
		}
	}
	walk(0, 0, len(trie.Keys(0)))
	if paths != r.Len() {
		t.Fatalf("order %v: %d paths, relation has %d tuples", order, paths, r.Len())
	}
}

func TestTrieMemoizesPerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2041))
	for _, size := range []int{0, 1, 60} {
		r := randRel(rng, "ABC", size, 5)
		b := r.Block()
		orders := [][]string{{"A", "B", "C"}, {"C", "A", "B"}, {"B", "C", "A"}}
		tries := make([]*Trie, len(orders))
		for i, order := range orders {
			trie, built, err := b.Trie(order)
			if err != nil || !built {
				t.Fatalf("order %v: built=%v err=%v", order, built, err)
			}
			checkTrie(t, trie, order, r)
			tries[i] = trie
		}
		for i, order := range orders {
			trie, built, err := b.Trie(order)
			if err != nil || built || trie != tries[i] {
				t.Fatalf("order %v: second request rebuilt (built=%v, same=%v, err=%v)", order, built, trie == tries[i], err)
			}
		}
		for _, bad := range [][]string{{"A", "B"}, {"A", "B", "Z"}, {"A", "B", "B"}, {"A", "B", "C", "A"}} {
			if _, _, err := b.Trie(bad); err == nil {
				t.Errorf("order %v accepted", bad)
			}
		}
	}
}

// TestBlockMemoConcurrentFirstUse races first readers (run with -race): all
// of them must end up on one block and one trie per order.
func TestBlockMemoConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(2042))
	for trial := 0; trial < 20; trial++ {
		r := randRel(rng, "ABC", 200, 6)
		orders := [][]string{{"A", "B", "C"}, {"C", "B", "A"}}
		const readers = 8
		blocks := make([]*ColBlock, readers)
		tries := make([][2]*Trie, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				blocks[g] = r.Block()
				for o, order := range orders {
					trie, _, err := blocks[g].Trie(order)
					if err != nil {
						t.Error(err)
						return
					}
					tries[g][o] = trie
				}
			}(g)
		}
		wg.Wait()
		for g := 1; g < readers; g++ {
			if blocks[g] != blocks[0] || tries[g] != tries[0] {
				t.Fatalf("trial %d: reader %d kept its own encoding", trial, g)
			}
		}
		if blocks[0] != r.Block() {
			t.Fatalf("trial %d: the retained block is not the one readers got", trial)
		}
		for o, order := range orders {
			if trie, built, _ := blocks[0].Trie(order); built || trie != tries[0][o] {
				t.Fatalf("trial %d: order %v: the retained trie is not the one readers got", trial, order)
			}
		}
	}
}

// TestToRelationDecodesOnDemand pins ToRelation to the Relation header: the
// rows are not decoded until someone reads them, so counting an executor
// output costs one allocation whatever its size.
func TestToRelationDecodesOnDemand(t *testing.T) {
	for _, n := range []int{10, 10000} {
		r := New(SchemaOfRunes("AB"))
		for i := 0; i < n; i++ {
			r.MustInsert(Ints(int64(i), int64(i%7)))
		}
		b := FromRelation(r)
		got := 0
		if avg := testing.AllocsPerRun(100, func() { got = b.ToRelation().Len() }); avg > 1 {
			t.Fatalf("ToRelation().Len() allocates %.1f times for %d rows, want at most 1", avg, n)
		}
		if got != n {
			t.Fatalf("Len() = %d, want %d", got, n)
		}
	}
}

// TestToRelationFirstReadersRace races the first readers of a fresh
// ToRelation output (run with -race): whichever of them decodes, all of
// them must see one decoded slice, and the block must stay the one passed
// in.
func TestToRelationFirstReadersRace(t *testing.T) {
	rng := rand.New(rand.NewSource(2043))
	src := randRel(rng, "ABC", 3000, 40)
	want, err := src.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	probe := src.Rows()[0]
	firstUse := []func(r *Relation) error{
		func(r *Relation) error { r.Rows(); return nil },
		func(r *Relation) error {
			if r.Len() != src.Len() {
				return fmt.Errorf("Len() = %d, want %d", r.Len(), src.Len())
			}
			return nil
		},
		func(r *Relation) error {
			if !r.Contains(probe) {
				return fmt.Errorf("Contains(%v) = false", probe)
			}
			return nil
		},
		func(r *Relation) error {
			if got := len(r.SortedRows()); got != src.Len() {
				return fmt.Errorf("SortedRows() has %d rows, want %d", got, src.Len())
			}
			return nil
		},
		func(r *Relation) error { r.Block(); return nil },
		func(r *Relation) error {
			got, _, err := r.AppendJSON(nil, 0)
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("AppendJSON differs from the row-backed encoding")
			}
			return err
		},
	}
	for trial := 0; trial < 20; trial++ {
		b := FromRelation(src)
		r := b.ToRelation()
		const readers = 8
		heads := make([]*Tuple, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if err := firstUse[g%len(firstUse)](r); err != nil {
					t.Error(err)
				}
				heads[g] = &r.Rows()[0]
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range heads {
			if heads[g] != heads[0] {
				t.Fatalf("trial %d: reader %d decoded its own rows", trial, g)
			}
		}
		if r.Block() != b {
			t.Fatalf("trial %d: the block is not the one ToRelation was given", trial)
		}
		if !r.Equal(src) {
			t.Fatalf("trial %d: decoded rows differ from the source", trial)
		}
	}
}

// TestHeadFirstReadersRace races the first readers of one join head (run
// with -race): readers that need its columns — decode, a trie, a
// projection, a join building on it — and readers of its pairs, semijoins
// with the head on either side and a join probing with it. The head's columns must be written once:
// every columns reader ends on the same code vectors, and every reader sees
// the tuple-map join.
func TestHeadFirstReadersRace(t *testing.T) {
	rng := rand.New(rand.NewSource(2051))
	for trial := 0; trial < 20; trial++ {
		a := FromRelation(randRel(rng, "AB", 300, 20))
		b := FromRelation(randRel(rng, "BC", 300, 20))
		small := FromRelation(randRel(rng, "A", 5, 20))
		wide := New(SchemaOfRunes("C"))
		for c := 0; c < 6000; c++ {
			wide.MustInsert(Ints(int64(c)))
		}
		big := FromRelation(wide)
		want := Join(a.ToRelation(), b.ToRelation())
		h, err := JoinBlocksGoverned(nil, a, b)
		if err != nil || h.head == nil {
			t.Fatalf("trial %d: join of plain blocks gave %v, %v; want a head", trial, h, err)
		}
		firstUse := []func() error{
			func() error {
				if !h.ToRelation().Equal(want) {
					return fmt.Errorf("decoded head differs from the tuple-map join")
				}
				return nil
			},
			func() error {
				if got, _, err := h.Trie([]string{"C", "B", "A"}); err != nil || got == nil {
					return fmt.Errorf("trie: %v", err)
				}
				return nil
			},
			func() error {
				_, err := ParallelSemijoinBlocksGoverned(nil, small, h, 2)
				return err
			},
			func() error {
				out, err := ParallelSemijoinBlocksGoverned(nil, h, small, 2)
				if err == nil && !out.ToRelation().Equal(Semijoin(want, small.ToRelation())) {
					err = fmt.Errorf("semijoin probing the head differs from the tuple-map one")
				}
				return err
			},
			func() error {
				_, err := ProjectBlocksGoverned(nil, h, NewAttrSet("A", "C"))
				return err
			},
			func() error {
				_, err := JoinBlocksGoverned(nil, small, h) // the head probes as pairs
				return err
			},
			func() error {
				_, err := JoinBlocksGoverned(nil, h, big) // the smaller head builds on its columns
				return err
			},
		}
		const readers = 8
		codes := make([]*uint32, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if err := firstUse[g%len(firstUse)](); err != nil {
					t.Error(err)
				}
				if h.Len() > 0 {
					codes[g] = &h.cols()[0].codes[0]
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range codes {
			if codes[g] != codes[0] {
				t.Fatalf("trial %d: reader %d saw its own written columns", trial, g)
			}
		}
		if !sameRowsAs(h, want) {
			t.Fatalf("trial %d: the written head differs from the tuple-map join", trial)
		}
	}
}

// TestBlockBackedRelationEdges pins what changes and what does not when a
// ToRelation output is copied, mutated or overwritten, before and after its
// rows are decoded.
func TestBlockBackedRelationEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2044))
	src := randRel(rng, "ABC", 60, 5)
	b := FromRelation(src)
	for _, decode := range []bool{false, true} {
		fresh := func() *Relation {
			r := b.ToRelation()
			if decode {
				r.Rows()
			}
			return r
		}

		c := fresh().Clone()
		if c.block.Load() != nil || !c.Equal(src) {
			t.Fatalf("decode=%v: Clone kept the block, or lost rows", decode)
		}

		r := fresh()
		r.MustInsert(src.Rows()[0])
		if r.Block() != b || r.Len() != src.Len() {
			t.Fatalf("decode=%v: a duplicate Insert changed the relation", decode)
		}
		row := Ints(99, 99, 99)
		r.MustInsert(row)
		nb := checkBlock(t, r, "after Insert")
		if nb == b || nb.Len() != b.Len()+1 || !nb.ToRelation().Contains(row) {
			t.Fatalf("decode=%v: the block after Insert does not hold the new row", decode)
		}

		r = fresh()
		if err := json.Unmarshal([]byte(`{"attrs":["X"],"tuples":[[1],[2],[1]]}`), r); err != nil {
			t.Fatal(err)
		}
		if r.Len() != 2 || !r.Schema().Has("X") || r.Block() == b || !r.Contains(Ints(2)) || len(r.Rows()) != 2 {
			t.Fatalf("decode=%v: UnmarshalJSON did not replace the relation: %v", decode, r)
		}
	}

	one := New(MustSchema())
	one.MustInsert(Tuple{})
	nb := FromRelation(one).ToRelation()
	for _, when := range []string{"before Rows()", "after Rows()"} {
		if got, _ := nb.MarshalJSON(); !bytes.HasSuffix(got, []byte(`"tuples":[[]]}`)) {
			t.Fatalf("1-row nullary block %s: %s", when, got)
		}
		nb.Rows()
	}
	for _, r := range []*Relation{New(MustSchema()), FromRelation(New(MustSchema())).ToRelation()} {
		r.MustInsert(nil)
		if got, _ := r.MarshalJSON(); !bytes.HasSuffix(got, []byte(`"tuples":[null]}`)) {
			t.Fatalf("MustInsert(nil): %s", got)
		}
	}
}
