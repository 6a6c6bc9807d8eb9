package relation

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestRelationJSONRoundTrip(t *testing.T) {
	r := New(MustSchema("A", "B"))
	r.MustInsert(Tuple{Int(1), String("x")})
	r.MustInsert(Tuple{Int(-9007199254740993), String("")}) // below float64 exactness
	r.MustInsert(Tuple{Int(2), String("42")})               // integer-looking string

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Relation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(&back) {
		t.Errorf("round trip changed the relation:\n%s\n%s", r, &back)
	}
}

func TestDatabaseJSONRoundTrip(t *testing.T) {
	mk := func(a, b string) *Relation {
		r := New(MustSchema(a, b))
		for i := int64(0); i < 5; i++ {
			r.MustInsert(Ints(i, i+1))
		}
		return r
	}
	db := MustDatabase(mk("A", "B"), mk("B", "C"))
	data, err := json.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	var back Database
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("len %d, want %d", back.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		if !db.Relation(i).Equal(back.Relation(i)) {
			t.Errorf("relation %d differs after round trip", i)
		}
	}
}

func TestRelationJSONDecodeLiteral(t *testing.T) {
	var r Relation
	if err := json.Unmarshal([]byte(`{"attrs":["A","B"],"tuples":[[1,2],[1,2],[3,"x"]]}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 { // duplicate [1,2] collapses
		t.Errorf("len = %d, want 2 (set semantics)", r.Len())
	}
	if !r.Contains(Tuple{Int(3), String("x")}) {
		t.Error("mixed-kind tuple missing")
	}
}

func TestRelationJSONRejectsBadInput(t *testing.T) {
	for name, input := range map[string]string{
		"float value":     `{"attrs":["A"],"tuples":[[1.5]]}`,
		"bool value":      `{"attrs":["A"],"tuples":[[true]]}`,
		"arity mismatch":  `{"attrs":["A","B"],"tuples":[[1]]}`,
		"duplicate attrs": `{"attrs":["A","A"],"tuples":[]}`,
		"empty attr":      `{"attrs":[""],"tuples":[]}`,
	} {
		var r Relation
		if err := json.Unmarshal([]byte(input), &r); err == nil {
			t.Errorf("%s: accepted %s", name, input)
		}
	}
	var d Database
	if err := json.Unmarshal([]byte(`[]`), &d); err == nil || !strings.Contains(err.Error(), "at least one") {
		t.Errorf("empty database accepted (err = %v)", err)
	}
}

func TestValueJSONExactInt64(t *testing.T) {
	// 2^53+1 is not representable as float64; json.Number must preserve it.
	const big = int64(9007199254740993)
	var v Value
	if err := json.Unmarshal([]byte("9007199254740993"), &v); err != nil {
		t.Fatal(err)
	}
	if v.Kind() != KindInt || v.AsInt() != big {
		t.Errorf("got %v, want exact %d", v, big)
	}
}

// reflectiveRelationJSON is the reflective encoder Relation.MarshalJSON
// replaced: json.Marshal over the wire struct, each value boxed as an int64
// or a string. It is the oracle for the appending encoder.
func reflectiveRelationJSON(r *Relation) ([]byte, error) {
	var tuples [][]any
	for _, t := range r.SortedRows() {
		var row []any
		if t != nil {
			row = make([]any, len(t))
		}
		for i, v := range t {
			if v.Kind() == KindInt {
				row[i] = v.AsInt()
			} else {
				row[i] = v.AsString()
			}
		}
		tuples = append(tuples, row)
	}
	return json.Marshal(struct {
		Attrs  []string `json:"attrs"`
		Tuples [][]any  `json:"tuples"`
	}{r.Schema().Attrs(), tuples})
}

// TestRelationJSONMatchesReflectiveEncoder pins MarshalJSON byte for byte to
// the reflective encoder — alone and nested in a Database — over random
// Int/String relations and the strings json escapes specially.
func TestRelationJSONMatchesReflectiveEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(2040))
	specials := []string{"", "<&>", "\xff", "a\u2028b\u2029", `"quoted" \back`, "tab\tnl\n", "é", "\x00"}
	var rels []*Relation
	for trial := 0; trial < 200; trial++ {
		r := New(SchemaOfRunes("ABC"[:1+rng.Intn(3)]))
		for i, n := 0, rng.Intn(30); i < n; i++ {
			row := make(Tuple, r.Schema().Len())
			for c := range row {
				switch rng.Intn(3) {
				case 0:
					row[c] = Int(rng.Int63n(2000) - 1000)
				case 1:
					row[c] = Int(rng.Int63() - rng.Int63())
				default:
					row[c] = String(specials[rng.Intn(len(specials))] + strconv.Itoa(rng.Intn(5)))
				}
			}
			r.MustInsert(row)
		}
		rels = append(rels, r)
	}
	nullary := New(MustSchema())
	nullary.MustInsert(nil)
	rels = append(rels, New(SchemaOfRunes("AB")), New(MustSchema()), nullary)
	for i, r := range rels {
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reflectiveRelationJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("relation %d:\n got %s\nwant %s", i, got, want)
		}
	}
	if got, _ := json.Marshal(rels[len(rels)-3]); string(got) != `{"attrs":["A","B"],"tuples":null}` {
		t.Errorf("empty relation encodes as %s", got)
	}
	got, err := json.Marshal(MustDatabase(rels[:3]...))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{'['}
	for i, r := range rels[:3] {
		b, _ := reflectiveRelationJSON(r)
		if i > 0 {
			want = append(want, ',')
		}
		want = append(want, b...)
	}
	if want = append(want, ']'); !bytes.Equal(got, want) {
		t.Errorf("database:\n got %s\nwant %s", got, want)
	}
}
