package relation

import (
	"errors"
	"testing"
)

func TestValueBinaryRoundTrip(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-1), Int(1<<62 + 17), Int(-1 << 62),
		String(""), String("x"), String("hello\tworld\n"), String("42"),
		String(string([]byte{0, 255, 'i', 's'})),
	}
	var buf []byte
	for _, v := range vals {
		buf = AppendValueBinary(buf, v)
	}
	off := 0
	for i, want := range vals {
		got, n, err := DecodeValueBinary(buf[off:])
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("value %d: got %#v, want %#v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestValueBinaryMatchesHashKey(t *testing.T) {
	// The exported codec must be byte-identical to the internal dedup-key
	// encoding; the durable format and the in-memory keys may never drift.
	for _, v := range []Value{Int(-9), Int(12345), String("abc"), String("")} {
		if got, want := string(AppendValueBinary(nil, v)), string(v.appendKey(nil)); got != want {
			t.Fatalf("%#v: binary %q != key %q", v, got, want)
		}
	}
}

func TestTupleBinaryRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{},
		Ints(1, 2, 3),
		{Int(7), String("x"), Int(-3)},
		Tuple{String("a"), String(""), String("b")},
	}
	var buf []byte
	for _, tp := range tuples {
		buf = AppendTupleBinary(buf, tp)
	}
	off := 0
	for i, want := range tuples {
		got, n, err := DecodeTupleBinary(buf[off:])
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if got.Compare(want) != 0 {
			t.Fatalf("tuple %d: got %v, want %v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestRelationBinaryRoundTrip(t *testing.T) {
	r := New(MustSchema("A", "B"))
	r.MustInsert(Tuple{Int(1), String("x")})
	r.MustInsert(Tuple{Int(2), String("y")})
	r.MustInsert(Ints(3, 4))
	buf := AppendRelationBinary(nil, r)
	got, n, err := DecodeRelationBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if !got.Equal(r) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, r)
	}
}

func TestBinaryDecodeCorruption(t *testing.T) {
	cases := map[string][]byte{
		"empty value":          {},
		"unknown kind":         {'q', 1, 2, 3},
		"truncated int":        {'i', 0, 0},
		"truncated string hdr": {'s', 0, 0},
		"string overrun":       {'s', 0, 0, 0, 9, 'a', 'b'},
		"string absurd length": {'s', 0xff, 0xff, 0xff, 0xff},
	}
	for name, b := range cases {
		if _, _, err := DecodeValueBinary(b); !errors.Is(err, ErrBinaryCorrupt) {
			t.Errorf("%s: got %v, want ErrBinaryCorrupt", name, err)
		}
	}
	// Tuple-level corruption.
	if _, _, err := DecodeTupleBinary(nil); !errors.Is(err, ErrBinaryCorrupt) {
		t.Errorf("empty tuple input: got %v", err)
	}
	if _, _, err := DecodeTupleBinary([]byte{200}); !errors.Is(err, ErrBinaryCorrupt) {
		t.Errorf("dangling uvarint: got %v", err)
	}
	if _, _, err := DecodeTupleBinary([]byte{3, 'i', 0, 0, 0, 0, 0, 0, 0, 1}); !errors.Is(err, ErrBinaryCorrupt) {
		t.Errorf("short tuple: got %v", err)
	}
	// Relation-level corruption.
	for name, b := range map[string][]byte{
		"empty":           {},
		"zero attrs":      {0},
		"huge attr count": {0xff, 0xff, 0xff, 0xff, 0x0f},
		"attr overrun":    {1, 9, 'A'},
		"huge row count":  append(AppendRelationBinary(nil, New(MustSchema("A")))[:3], 0xff, 0xff, 0xff, 0x0f),
	} {
		if _, _, err := DecodeRelationBinary(b); !errors.Is(err, ErrBinaryCorrupt) {
			t.Errorf("relation %s: got %v, want ErrBinaryCorrupt", name, err)
		}
	}
	// Well-formed bytes naming a bad scheme (duplicate attribute) error
	// without panicking, via the schema constructor.
	bad := []byte{2, 1, 'A', 1, 'A', 0}
	if _, _, err := DecodeRelationBinary(bad); err == nil {
		t.Error("duplicate attribute decoded without error")
	}
}
