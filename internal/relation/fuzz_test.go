package relation

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParallelJoinKeys drives the range-split block join with adversarial
// join-key content: arbitrary byte blobs are decoded into two relations over
// AB and BC whose B columns carry raw fuzzer-chosen strings (embedded
// separators, empty keys, invalid UTF-8, near-collisions), and the join of
// their resident blocks at a fuzzer-chosen worker count, decoded, must equal
// the tuple-map join exactly. Any dictionary-remap or key-packing confusion
// shows up as a lost or duplicated output row.
func FuzzParallelJoinKeys(f *testing.F) {
	f.Add([]byte("a\x00b\x001"), []byte("b\x00c\x002"), uint8(2))
	f.Add([]byte("\x00\x00\x00"), []byte("\x00\x00\x00"), uint8(3))
	f.Add([]byte("k\xffk\xff\xffk"), []byte("\xffk\xffkk\xff"), uint8(4))
	f.Add([]byte(""), []byte("x\x00y\x00z"), uint8(1))
	f.Add([]byte("1\x002\x003\x004\x005\x006"), []byte("2\x004\x006\x008"), uint8(16))
	f.Fuzz(func(t *testing.T, lBlob, rBlob []byte, workers uint8) {
		defer SetParallelThreshold(0)()
		w := int(workers%16) + 1
		l := blobRelation("AB", lBlob)
		r := blobRelation("BC", rBlob)
		want := Join(l, r)
		out, err := ParallelJoinBlocksGoverned(nil, l.Block(), r.Block(), w)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.ToRelation(); !got.Equal(want) {
			t.Fatalf("block join (%d workers) %d tuples, tuple-map %d\nl=%v\nr=%v",
				w, got.Len(), want.Len(), lBlob, rBlob)
		}
	})
}

// blobRelation decodes a fuzzer blob into a two-column relation: NUL-split
// fields fill rows pairwise, so the fuzzer controls the exact key bytes.
func blobRelation(scheme string, blob []byte) *Relation {
	r := New(SchemaOfRunes(scheme))
	fields := strings.Split(string(blob), "\x00")
	for i := 0; i+1 < len(fields); i += 2 {
		r.MustInsert(Tuple{String(fields[i]), String(fields[i+1])})
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
