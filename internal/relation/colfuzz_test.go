package relation

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// FuzzColBlockRoundTrip drives the columnar encoder with adversarial
// content: a fuzzer blob decodes into a two-column relation mixing string
// and integer values (NUL-split fields; fields parsing as integers become
// Int values, so the mixed-kind dictionary order is exercised), and the
// encode must satisfy every block invariant (Validate), round-trip back to
// the identical relation — which keeps the block and encodes as the
// reflective JSON encoder does.
func FuzzColBlockRoundTrip(f *testing.F) {
	f.Add([]byte("1\x002\x001\x003"), byte(0))
	f.Add([]byte("a\x00b\x00a\x00b"), byte(1))
	f.Add([]byte("1\x00x\x00x\x001\x00-9223372036854775808\x009223372036854775807"), byte(0))
	f.Add([]byte(""), byte(0))
	f.Add([]byte("\x00\x00\x00\x00\xff\x00\xfe"), byte(1))
	f.Add([]byte("0\x000\x00-1\x001\x0000\x00+0"), byte(0))
	f.Add([]byte("3\x00c\x001\x00a\x002\x00b\x001\x00a\x000\x00z"), byte(2))
	f.Add([]byte("b\x002\x00a\x001\x00c\x003\x00a\x001\x00\x00-1"), byte(5))
	f.Fuzz(func(t *testing.T, blob []byte, col byte) {
		r := blobMixedRelation("AB", blob, int(col>>1)%3)
		b := r.Block()
		if fresh := FromRelation(r); b.Len() != fresh.Len() || !b.ToRelation().Equal(fresh.ToRelation()) {
			t.Fatalf("resident block is stale: %d rows, a fresh encode has %d\nblob=%q", b.Len(), fresh.Len(), blob)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("invalid block: %v\nblob=%q", err, blob)
		}
		if b.Len() != r.Len() {
			t.Fatalf("block has %d rows, relation %d", b.Len(), r.Len())
		}
		back := b.ToRelation()
		if !back.Equal(r) {
			t.Fatalf("round trip changed relation for blob %q", blob)
		}
		if back.Block() != b {
			t.Fatalf("decoded relation does not keep its block\nblob=%q", blob)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := reflectiveRelationJSON(r, 0); !bytes.Equal(got, want) {
			t.Fatalf("encoded from the block:\n got %s\nwant %s\nblob=%q", got, want, blob)
		}
	})
}

// blobMixedRelation decodes a fuzzer blob into a two-column relation:
// NUL-split fields fill rows pairwise, and any field parsing as a base-10
// int64 becomes an Int value, so blobs can force mixed-kind columns. With
// readEvery > 0 the relation's Block() is read after every readEvery-th
// insert.
func blobMixedRelation(scheme string, blob []byte, readEvery int) *Relation {
	r := New(SchemaOfRunes(scheme))
	fields := strings.Split(string(blob), "\x00")
	mk := func(s string) Value {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(n)
		}
		return String(s)
	}
	for i := 0; i+1 < len(fields); i += 2 {
		r.MustInsert(Tuple{mk(fields[i]), mk(fields[i+1])})
		if readEvery > 0 && (i/2)%readEvery == 0 {
			r.Block()
		}
	}
	return r
}
