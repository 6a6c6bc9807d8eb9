package wcoj

import (
	"sort"
	"testing"

	"repro/internal/relation"
)

// fuzzDomain is the value domain of FuzzTrieIter's relation; seeks range one
// past it.
const fuzzDomain = 16

// FuzzTrieIter drives the CSR trie iterator with an arbitrary row set and
// an arbitrary forward-only seek/next script, checking every step against a
// naive model: the sorted distinct values of the open level, i.e. its node
// keys. The first byte
// sizes the relation, the next 2n bytes are (x, y) rows, and the remainder
// is the script (even byte = next, odd byte = seek to byte>>1 mod
// fuzzDomain+1). The iterator's x level is aligned against a second relation
// holding every value 0..fuzzDomain, so aligned codes differ from the
// relation's local codes, every seek target has an aligned code whether or
// not the relation holds the value (absent keys), and fuzzDomain itself lies
// past the end. After the script, whatever position the iterator holds is
// opened one level down — the node's child range — and the child keys are
// compared against the model's sub-list for that prefix.
func FuzzTrieIter(f *testing.F) {
	f.Add([]byte{4, 1, 2, 1, 3, 5, 0, 5, 9, 7, 12, 3})
	f.Add([]byte{8, 0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 2, 9, 4})
	f.Add([]byte{1, 15, 15, 31, 31, 2})
	f.Add([]byte{3, 2, 7, 9, 1, 9, 4, 33, 7, 1, 19, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]%24) + 1
		if len(data) < 1+2*n {
			return
		}
		rel := relation.New(relation.MustSchema("x", "y"))
		for i := 0; i < n; i++ {
			rel.MustInsert(relation.Ints(int64(data[1+2*i]%fuzzDomain), int64(data[2+2*i]%fuzzDomain)))
		}
		domain := relation.New(relation.MustSchema("x"))
		for v := int64(0); v <= fuzzDomain; v++ {
			domain.MustInsert(relation.Ints(v))
		}
		order := []string{"x", "y"}
		tr, err := FromColumns(rel, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		dom, err := FromColumns(domain, order[:1], nil)
		if err != nil {
			t.Fatal(err)
		}
		doms := alignTries(order, []*trieIndex{tr, dom})
		if len(doms[0]) != fuzzDomain+1 {
			t.Fatalf("merged x domain has %d values, want %d", len(doms[0]), fuzzDomain+1)
		}

		// Naive model: distinct x values ascending, and per x the distinct
		// y values ascending.
		children := map[int64][]int64{}
		for _, row := range rel.Rows() {
			x, y := row[0].AsInt(), row[1].AsInt()
			children[x] = append(children[x], y)
		}
		var xs []int64
		for x, ys := range children {
			xs = append(xs, x)
			sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
			children[x] = dedupeSorted(ys)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })

		it := newTrieIter(tr)
		it.open()
		idx := 0
		check := func() {
			if got, want := it.atEnd(), idx >= len(xs); got != want {
				t.Fatalf("atEnd = %v, model says %v (idx %d of %d)", got, want, idx, len(xs))
			}
			if !it.atEnd() {
				if got := doms[0][it.key()].AsInt(); got != xs[idx] {
					t.Fatalf("key = %d, model says %d", got, xs[idx])
				}
			}
		}
		check()
		for _, op := range data[1+2*n:] {
			if it.atEnd() {
				break
			}
			if op%2 == 0 {
				it.next()
				idx++
			} else {
				// The merged x domain is exactly 0..fuzzDomain, so a value is
				// its own aligned code. A target below the current key must
				// leave the iterator where it is.
				v := int64((op >> 1) % (fuzzDomain + 1))
				it.seek(uint32(v))
				for idx < len(xs) && xs[idx] < v {
					idx++
				}
			}
			check()
		}

		if it.atEnd() {
			return
		}
		// Descend: the child level must enumerate exactly the model's
		// distinct y values under the current x, and up() must restore the
		// parent position.
		x := xs[idx]
		it.open()
		for _, wantY := range children[x] {
			if it.atEnd() {
				t.Fatalf("child level of x=%d ended early, want %d", x, wantY)
			}
			if got := doms[1][it.key()].AsInt(); got != wantY {
				t.Fatalf("child key = %d, want %d under x=%d", got, wantY, x)
			}
			it.next()
		}
		if !it.atEnd() {
			t.Fatalf("child level of x=%d has extra keys past %v", x, children[x])
		}
		it.up()
		if got := doms[0][it.key()].AsInt(); got != x {
			t.Fatalf("up() lost the parent position: key = %d, want %d", got, x)
		}
	})
}

func dedupeSorted(vs []int64) []int64 {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
