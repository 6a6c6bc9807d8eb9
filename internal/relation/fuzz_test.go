package relation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/govern"
)

// FuzzParallelJoinKeys drives the range-split block join and semijoin with
// adversarial join-key content: arbitrary byte blobs are decoded into two
// relations whose columns carry raw fuzzer-chosen strings (embedded
// separators, empty keys, invalid UTF-8, near-collisions), and the kernels
// over their resident blocks, at a fuzzer-chosen worker count, must return
// the tuple-map operators' rows in the same order. The workers byte also
// picks the shape: its low nibble is the worker count, and its high nibble
// picks one, two or three key columns (value mod 3) and whether either side
// is first cut to a block with non-minimal dictionaries (bits 4 and 8), so
// both table shapes and unmatched probe codes are reached. The join's
// output, a head kept as pairs, is then joined and semijoined with l and
// with r in both positions, each time as a head no reader has touched, and
// must give the tuple-map composition. Any dictionary-remap, key-numbering,
// key-packing or pair-walking confusion shows up as a lost, duplicated or
// reordered output row.
func FuzzParallelJoinKeys(f *testing.F) {
	f.Add([]byte("a\x00b\x001"), []byte("b\x00c\x002"), uint8(2))
	f.Add([]byte("\x00\x00\x00"), []byte("\x00\x00\x00"), uint8(3))
	f.Add([]byte("k\xffk\xff\xffk"), []byte("\xffk\xffkk\xff"), uint8(4))
	f.Add([]byte(""), []byte("x\x00y\x00z"), uint8(1))
	f.Add([]byte("1\x002\x003\x004\x005\x006"), []byte("2\x004\x006\x008"), uint8(16))
	f.Add([]byte("a\x00b\x00c\x00a\x00d\x00e\x00f\x00b\x00c"), []byte("b\x00c\x00x\x00d\x00e\x00y"), uint8(0x11))
	f.Add([]byte("p\x00q\x00r\x00s\x00p\x00t\x00u\x00v"), []byte("q\x00r\x00s\x00w\x00t\x00u\x00v\x00z"), uint8(0x22))
	f.Add([]byte("k\x00a\x00k\x00b\x00j\x00c"), []byte("a\x001\x00b\x002\x00c\x003"), uint8(0xc3))
	// Both sides decode to more than one probe batch of rows, at 3 workers.
	var lBig, rBig []byte
	for i := 0; i < 3*probeBatch; i++ {
		lBig = fmt.Appendf(lBig, "a%d\x00b%d\x00", i, i%50)
	}
	for i := 0; i < probeBatch+7; i++ {
		rBig = fmt.Appendf(rBig, "b%d\x00c%d\x00", i%70, i)
	}
	f.Add(lBig, rBig, uint8(0x02))
	// One probe row of the join matches all 258 build rows, so its pairs run
	// past a probe batch.
	var lFan, rFan []byte
	for i := 0; i < probeBatch+2; i++ {
		lFan = fmt.Appendf(lFan, "a%d\x00b0\x00", i)
		rFan = fmt.Appendf(rFan, "b%d\x00c%d\x00", i, i)
	}
	f.Add(lFan, rFan, uint8(0x02))
	f.Fuzz(func(t *testing.T, lBlob, rBlob []byte, workers uint8) {
		defer SetParallelThreshold(0)()
		w := int(workers%16) + 1
		shape := int(workers / 16)
		pair := shapePairs[shape%3]
		l, r := blobRelation(pair[0], lBlob).Block(), blobRelation(pair[1], rBlob).Block()
		if shape&4 != 0 {
			l = cutBlock(l)
		}
		if shape&8 != 0 {
			r = cutBlock(r)
		}
		lt, rt := l.ToRelation(), r.ToRelation()
		for _, k := range []struct {
			name   string
			kernel func(*govern.Governor, *ColBlock, *ColBlock, int) (*ColBlock, error)
			want   *Relation
		}{
			{"join", ParallelJoinBlocksGoverned, Join(lt, rt)},
			{"semijoin", ParallelSemijoinBlocksGoverned, Semijoin(lt, rt)},
		} {
			out, err := k.kernel(nil, l, r, w)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRowsAs(out, k.want) {
				t.Fatalf("block %s (%s, %s, %d workers) %d tuples, tuple-map %d (or order differs)\nl=%q\nr=%q",
					k.name, pair[0], pair[1], w, out.Len(), k.want.Len(), lBlob, rBlob)
			}
		}
		jt := Join(lt, rt)
		for _, x := range []*ColBlock{l, r} {
			xt := x.ToRelation()
			for _, k := range []struct {
				name   string
				kernel func(*govern.Governor, *ColBlock, *ColBlock, int) (*ColBlock, error)
				oracle func(*Relation, *Relation) *Relation
			}{{"⋈", ParallelJoinBlocksGoverned, Join}, {"⋉", ParallelSemijoinBlocksGoverned, Semijoin}} {
				for _, headLeft := range []bool{true, false} {
					h, err := ParallelJoinBlocksGoverned(nil, l, r, w)
					if err != nil {
						t.Fatal(err)
					}
					a, b, want := h, x, k.oracle(jt, xt)
					if !headLeft {
						a, b, want = x, h, k.oracle(xt, jt)
					}
					out, err := k.kernel(nil, a, b, w)
					if err != nil {
						t.Fatal(err)
					}
					if !sameRowsAs(out, want) {
						t.Fatalf("%s %s %s (%s, %s, %d workers) %d tuples, tuple-map %d (or order differs)\nl=%q\nr=%q",
							a.Schema(), k.name, b.Schema(), pair[0], pair[1], w, out.Len(), want.Len(), lBlob, rBlob)
					}
				}
			}
		}
	})
}

// blobRelation decodes a fuzzer blob into a relation over scheme:
// NUL-split fields fill rows arity at a time, so the fuzzer controls the
// exact key bytes.
func blobRelation(scheme string, blob []byte) *Relation {
	r := New(SchemaOfRunes(scheme))
	arity := r.Schema().Len()
	fields := strings.Split(string(blob), "\x00")
	for i := 0; i+arity <= len(fields); i += arity {
		row := make(Tuple, arity)
		for c := range row {
			row[c] = String(fields[i+c])
		}
		r.MustInsert(row)
	}
	return r
}

// FuzzReadTSV drives the TSV reader with arbitrary input: it must never
// panic, and any accepted relation must round-trip through WriteTSV.
func FuzzReadTSV(f *testing.F) {
	for _, seed := range []string{
		"A\tB\n1\t2\n",
		"A\n1\n2\n1\n",
		"id\tname\n1\ts:ann\n2\ts:42\n",
		"A\tB\n1\n",
		"A\tA\n1\t2\n",
		"",
		"\n\n\n",
		"A\ns:\n",
		"A\t\n1\t2\n",
		"A\n-9223372036854775808\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		r, err := ReadTSV(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := r.WriteTSV(&buf); err != nil {
			t.Fatalf("accepted relation fails to write: %v", err)
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("written relation fails to reparse: %v\n%q", err, buf.String())
		}
		if !back.Equal(r) {
			t.Fatalf("round trip changed relation for input %q", input)
		}
	})
}
