package wcoj

import (
	"slices"
	"testing"

	"repro/internal/govern"
)

// fuzzDomain is the aligned-code domain of FuzzIntersect's ranges.
const fuzzDomain = 64

// FuzzIntersect drives the intersection kernel over k = 1..4 arbitrary
// ranges and checks every binding it makes against a naive sorted-set
// intersection: the common keys in ascending order and, for each, the
// position it was matched at in every operand. The first byte picks k (low
// two bits) and which operands are level-0 ranges, probed through the
// successor table, rather than child ranges below a parent, probed by
// galloping (bits 2..5). Then each operand takes a length byte and that
// many key bytes (mod fuzzDomain), deduplicated and sorted; lengths of 1 to
// 64 land on both sides of mergeRatio, so the walk, the merge and the
// probe all run. A child range sits between two sibling ranges whose keys
// would break the model if the kernel strayed past its bounds.
func FuzzIntersect(f *testing.F) {
	evens := make([]byte, 30)
	for i := range evens {
		evens[i] = byte(2 * i)
	}
	var threes, fives []byte
	for v := byte(3); v < fuzzDomain; v += 3 {
		threes = append(threes, v)
	}
	for v := byte(0); v < fuzzDomain; v += 5 {
		fives = append(fives, v)
	}
	fives = slices.Insert(fives, 1, 3)
	f.Add(intersectSeed(0, []byte{5, 1, 9}))                              // walk
	f.Add(intersectSeed(0, []byte{1, 2, 3, 4, 7}, []byte{2, 3, 4, 5, 7})) // merge
	f.Add(intersectSeed(1, []byte{1, 10, 30}, evens))                     // root driver, gallop probes
	f.Add(intersectSeed(2, []byte{2, 30, 58}, evens))                     // child driver, succ probes
	f.Add(intersectSeed(5, []byte{1, 5, 9, 13, 17, 21}, []byte{5, 9, 21, 40}, []byte{0, 5, 9, 17, 21, 33, 45, 63}))
	f.Add(intersectSeed(15, []byte{7, 8, 9}, []byte{6, 7, 8, 9}, []byte{1, 7, 8, 9, 63}, []byte{7, 9}))
	f.Add(intersectSeed(0, []byte{0, 63}, []byte{0, 1, 63}, []byte{63}, []byte{0, 32, 62, 63}))
	// The last operand drives; the first starts past its first key and
	// probes by galloping, so a probe that ignored where it stands would
	// skip the common key 3.
	f.Add(intersectSeed(2, threes, fives, []byte{1, 3, 10, 20, 30, 40}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, root := int(data[0]&3)+1, data[0]>>2
		data = data[1:]
		ex := &executor{ops: make([][]operand, 1), meter: (*govern.OpScope)(nil).Meter()}
		var sets [][]uint32
		for i := 0; i < k; i++ {
			if len(data) == 0 {
				return
			}
			n := int(data[0])%fuzzDomain + 1
			if len(data) < 1+n {
				return
			}
			set := make([]uint32, n)
			for j, b := range data[1 : 1+n] {
				set[j] = uint32(b) % fuzzDomain
			}
			data = data[1+n:]
			slices.Sort(set)
			set = slices.Compact(set)
			sets = append(sets, set)

			op := operand{up: -1, at: len(ex.pos)}
			if root&(1<<i) != 0 {
				op.keys = set
				op.succ = make([]uint32, fuzzDomain+1)
				for c := range op.succ {
					p, _ := slices.BinarySearch(set, uint32(c))
					op.succ[c] = uint32(p)
				}
				ex.pos = append(ex.pos, 0)
			} else {
				// The parent's node 1 owns the range; its siblings hold
				// the domain's extremes.
				op.keys = slices.Concat([]uint32{fuzzDomain - 2, fuzzDomain - 1}, set, []uint32{0, 1})
				op.start = []uint32{0, 2, uint32(2 + len(set)), uint32(4 + len(set))}
				op.up, op.at = len(ex.pos), len(ex.pos)+1
				ex.pos = append(ex.pos, 1, 0)
			}
			ex.ops[0] = append(ex.ops[0], op)
		}

		ex.top = true
		if err := ex.run(0, make([]uint32, 1)); err != nil {
			t.Fatal(err)
		}
		tops := ex.tops

		// The model: every key of the first set that all others hold, with
		// its index in each operand's keys.
		var want []uint32
		for _, key := range sets[0] {
			row := []uint32{key}
			for i, set := range sets {
				p, ok := slices.BinarySearch(set, key)
				if !ok {
					row = nil
					break
				}
				if ex.ops[0][i].succ == nil {
					p += 2 // past the sibling before the range
				}
				row = append(row, uint32(p))
			}
			want = append(want, row...)
		}
		if !slices.Equal(tops, want) {
			t.Fatalf("k=%d over %v (level-0 mask %04b): bound rows (key, positions…) %v, want %v", k, sets, root&15, tops, want)
		}
	})
}

// intersectSeed encodes FuzzIntersect's input: the operand count less one
// and the level-0 mask in the first byte, then each range as its length
// less one and its keys.
func intersectSeed(root byte, sets ...[]byte) []byte {
	data := []byte{byte(len(sets)-1) | root<<2}
	for _, set := range sets {
		data = append(data, byte(len(set)-1))
		data = append(data, set...)
	}
	return data
}
