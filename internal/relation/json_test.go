package relation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
// or a string, keeping the first max tuples of the sorted order when max > 0.
// It is the oracle for the appending encoder.
func reflectiveRelationJSON(r *Relation, max int) ([]byte, error) {
	var tuples [][]any
	for i, t := range r.SortedRows() {
		if max > 0 && i == max {
			break
		}
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

// TestRelationJSONMatchesReflectiveEncoder pins MarshalJSON and every
// AppendJSON prefix byte for byte to the reflective encoder — alone and
// nested in a Database — over random Int/String relations and the strings
// json escapes specially, as built by Insert, as decoded from their block,
// and as kernel outputs, whose blocks share their inputs' non-minimal
// dictionaries.
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
	check := func(what string, r *Relation) {
		t.Helper()
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reflectiveRelationJSON(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
		n := r.Len()
		for _, max := range []int{0, 1, n - 1, n, n + 1} {
			got, cut, err := r.AppendJSON([]byte("prefix"), max)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := reflectiveRelationJSON(r, max)
			if !bytes.Equal(got, append([]byte("prefix"), want...)) || cut != (max > 0 && n > max) {
				t.Fatalf("%s, max %d of %d: cut %v\n got %s\nwant prefix%s", what, max, n, cut, got, want)
			}
		}
	}
	for i, r := range rels {
		check(fmt.Sprintf("relation %d", i), r)
		check(fmt.Sprintf("relation %d decoded from its block", i), FromRelation(r).ToRelation())
	}
	// Kernel inputs draw from a small mixed pool, so their joins are not empty.
	pool := []Value{Int(-3), Int(0), Int(7), String(""), String("<&>"), String("a\u2028b"), String("\xff")}
	kernelInput := func() *ColBlock {
		r := New(SchemaOfRunes([]string{"AB", "BC", "CA", "ABC", "B"}[rng.Intn(5)]))
		for i, n := 0, rng.Intn(40); i < n; i++ {
			row := make(Tuple, r.Schema().Len())
			for c := range row {
				row[c] = pool[rng.Intn(len(pool))]
			}
			r.MustInsert(row)
		}
		return r.Block()
	}
	for i := 0; i < 200; i++ {
		l, r := kernelInput(), kernelInput()
		join, err := JoinBlocksGoverned(nil, l, r)
		if err != nil {
			t.Fatal(err)
		}
		semi, err := ParallelSemijoinBlocksGoverned(nil, l, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := ProjectBlocksGoverned(nil, join, join.Schema().AttrSet().Intersect(AttrSetOfRunes("BC")))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("join %d", i), join.ToRelation())
		check(fmt.Sprintf("semijoin %d", i), semi.ToRelation())
		check(fmt.Sprintf("projection %d", i), proj.ToRelation())
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
		b, _ := reflectiveRelationJSON(r, 0)
		if i > 0 {
			want = append(want, ',')
		}
		want = append(want, b...)
	}
	if want = append(want, ']'); !bytes.Equal(got, want) {
		t.Errorf("database:\n got %s\nwant %s", got, want)
	}
}

// TestAppendJSONAllocatesPerColumnNotPerRow pins the encoder's allocations
// to its columns and dictionaries: over resident blocks with the same
// dictionaries, 200 rows and 3 000 rows allocate the same number of times
// (the sort's index and count arrays, one formatted entry table per column,
// the entries' slab and one output buffer), whatever the row count.
func TestAppendJSONAllocatesPerColumnNotPerRow(t *testing.T) {
	allocs := func(n int) (float64, int) {
		r := New(SchemaOfRunes("ABC"))
		for i := 0; i < n; i++ {
			a, b := i%60, i%50 // 200 rows: pairwise distinct, as is the 60 × 50 grid
			if n > 200 {
				a, b = i/50, i%50
			}
			r.MustInsert(Ints(int64(a), int64(b), int64((a+b)%7)))
		}
		r = r.Block().ToRelation()
		// The attrs go through json.Marshal, whose encoder state comes from a
		// sync.Pool that the race detector drops items from at random: keep
		// the fewest allocations of several runs.
		var out []byte
		least := math.Inf(1)
		for k := 0; k < 10; k++ {
			least = min(least, testing.AllocsPerRun(1, func() { out, _, _ = r.AppendJSON(nil, 0) }))
		}
		return least, len(out)
	}
	small, smallBytes := allocs(200)
	big, bigBytes := allocs(3000)
	if big != small || big > 30 {
		t.Fatalf("AppendJSON allocates %.0f times for %d bytes and %.0f for %d, want one count of at most 30",
			small, smallBytes, big, bigBytes)
	}
}
