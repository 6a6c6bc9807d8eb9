package relation

import (
	"bytes"
	"strings"
	"testing"
)

func TestTSVRoundTrip(t *testing.T) {
	r := New(MustSchema("id", "name", "n"))
	r.MustInsert(Tuple{Int(1), String("ann"), Int(10)})
	r.MustInsert(Tuple{Int(2), String("42"), Int(-5)}) // integer-looking string
	r.MustInsert(Tuple{Int(3), String(""), Int(0)})    // empty string

	var buf bytes.Buffer
	if err := r.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Errorf("round trip changed the relation:\n%s\nvs\n%s", back, r)
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"dup header", "A\tA\n"},
		{"arity", "A\tB\n1\n"},
		{"bad int", "A\n1x\n"},
	}
	for _, c := range cases {
		if _, err := ReadTSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestReadTSVSkipsBlankLines(t *testing.T) {
	r, err := ReadTSV(strings.NewReader("A\tB\n1\t2\n\n3\t4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestWriteTSVDeterministic(t *testing.T) {
	r := New(SchemaOfRunes("A"))
	for _, v := range []int64{5, 1, 3} {
		r.MustInsert(Ints(v))
	}
	var a, b bytes.Buffer
	if err := r.WriteTSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteTSV not deterministic")
	}
	if a.String() != "A\n1\n3\n5\n" {
		t.Errorf("WriteTSV = %q", a.String())
	}
}
