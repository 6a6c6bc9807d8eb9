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
// arbitrary forward-only seek/next scripts, checking every step against a
// naive model: the sorted distinct values of the open level, i.e. its node
// keys. The first byte sizes the relation, the next 2n bytes are (x, y)
// rows, and the remainder is two scripts split at its midpoint (even byte =
// next, odd byte = seek to byte>>1 mod fuzzDomain+1). Both levels are
// aligned against a second relation holding every value 0..fuzzDomain in
// both columns, so aligned codes differ from the relation's local codes,
// every seek target has an aligned code whether or not the relation holds
// the value (absent keys), and fuzzDomain itself lies past the end. The
// first script runs on the x level, where seeks take the successor table.
// Whatever position it leaves is opened one level down — the node's child
// range — and the second script seeks and steps there, where seeks gallop;
// then the rest of the child range is compared against the model's
// sub-list for that prefix.
func FuzzTrieIter(f *testing.F) {
	f.Add([]byte{4, 1, 2, 1, 3, 5, 0, 5, 9, 7, 12, 3})
	f.Add([]byte{8, 0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 2, 9, 4})
	f.Add([]byte{1, 15, 15, 31, 31, 2})
	f.Add([]byte{3, 2, 7, 9, 1, 9, 4, 33, 7, 1, 19, 33})
	f.Add([]byte{12, 3, 0, 3, 2, 3, 4, 3, 6, 3, 8, 3, 10, 3, 12, 3, 14, 3, 15, 5, 1, 5, 3, 9, 9, 7, 3, 7, 5, 1, 3, 13, 0, 21, 33})
	f.Add([]byte{12, 3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 3, 8, 3, 9, 3, 10, 3, 11, 1, 4, 7, 1, 11, 33})
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
		domain := relation.New(relation.MustSchema("x", "y"))
		for v := int64(0); v <= fuzzDomain; v++ {
			domain.MustInsert(relation.Ints(v, v))
		}
		order := []string{"x", "y"}
		tr, err := FromColumns(rel, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		dom, err := FromColumns(domain, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		doms := alignTries(order, []*trieIndex{tr, dom})
		for v, d := range doms {
			if len(d) != fuzzDomain+1 {
				t.Fatalf("merged %s domain has %d values, want %d", order[v], len(d), fuzzDomain+1)
			}
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

		script := data[1+2*n:]
		it := newTrieIter(tr)
		it.open()
		idx := runScript(t, it, script[:len(script)/2], xs, doms[0])
		if it.atEnd() {
			return
		}
		// Descend: the child level must step and seek through exactly the
		// model's distinct y values under the current x, and up() must
		// restore the parent position.
		x := xs[idx]
		ys := children[x]
		it.open()
		for j := runScript(t, it, script[len(script)/2:], ys, doms[1]); j < len(ys); j++ {
			if it.atEnd() {
				t.Fatalf("child level of x=%d ended early, want %d", x, ys[j])
			}
			if got := doms[1][it.key()].AsInt(); got != ys[j] {
				t.Fatalf("child key = %d, want %d under x=%d", got, ys[j], x)
			}
			it.next()
		}
		if !it.atEnd() {
			t.Fatalf("child level of x=%d has extra keys past %v", x, ys)
		}
		it.up()
		if got := doms[0][it.key()].AsInt(); got != x {
			t.Fatalf("up() lost the parent position: key = %d, want %d", got, x)
		}
	})
}

// runScript runs a seek/next script on the iterator's open level, whose keys the
// model says are want (ascending values, dom decoding an aligned code),
// checking the iterator after every step, and returns the model's index of
// the position the script leaves. The merged domain is exactly
// 0..fuzzDomain, so a value is its own aligned code. A seek target below
// the current key must leave the iterator where it is.
func runScript(t *testing.T, it *trieIter, script []byte, want []int64, dom []relation.Value) int {
	t.Helper()
	idx := 0
	check := func() {
		if got, exp := it.atEnd(), idx >= len(want); got != exp {
			t.Fatalf("depth %d: atEnd = %v, model says %v (idx %d of %d)", it.depth, got, exp, idx, len(want))
		}
		if !it.atEnd() {
			if got := dom[it.key()].AsInt(); got != want[idx] {
				t.Fatalf("depth %d: key = %d, model says %d", it.depth, got, want[idx])
			}
		}
	}
	check()
	for _, op := range script {
		if it.atEnd() {
			break
		}
		if op%2 == 0 {
			it.next()
			idx++
		} else {
			v := int64((op >> 1) % (fuzzDomain + 1))
			it.seek(uint32(v))
			for idx < len(want) && want[idx] < v {
				idx++
			}
		}
		check()
	}
	return idx
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
