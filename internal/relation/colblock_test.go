package relation

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/govern"
)

func TestFromRelationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2033))
	for trial := 0; trial < 100; trial++ {
		r := randRel(rng, "ABC", rng.Intn(50), 4)
		b := FromRelation(r)
		if err := b.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if b.Len() != r.Len() {
			t.Fatalf("trial %d: block has %d rows, relation %d", trial, b.Len(), r.Len())
		}
		if !b.ToRelation().Equal(r) {
			t.Fatalf("trial %d: round trip changed the relation", trial)
		}
	}
}

func TestFromRelationDictionariesMinimalAndSorted(t *testing.T) {
	r := mkRel(t, "AB",
		[]int64{5, 1}, []int64{3, 1}, []int64{5, 2}, []int64{9, 1})
	b := FromRelation(r)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Column A has values {3,5,9}, column B {1,2}; dictionaries are minimal.
	if got := len(b.Dict(0)); got != 3 {
		t.Errorf("dict A has %d entries, want 3", got)
	}
	if got := len(b.Dict(1)); got != 2 {
		t.Errorf("dict B has %d entries, want 2", got)
	}
	// Code order is value order: row decoding through Value matches dicts.
	for i := 0; i < b.Len(); i++ {
		for c := 0; c < 2; c++ {
			if !b.Value(i, c).Equal(b.Dict(c)[b.cols()[c].codes[i]]) {
				t.Fatalf("row %d col %d decodes inconsistently", i, c)
			}
		}
	}
}

// TestKernelProbeZeroAllocs pins the kernels' batch probe at zero
// allocations on both table shapes — the direct-addressed key space and the
// packed uint64 map — over hits, misses, and probes whose codes have no
// image in the build dictionary: a probe pass keys every batch, looks its
// match ids up and sums their ranges, as the count pass does.
func TestKernelProbeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2035))
	for _, c := range []struct {
		build, probe string
		domain       int
		direct       bool
	}{
		{"AB", "BC", 8, true},
		{"ABC", "BCD", 100, false},
	} {
		lb := FromRelation(randRel(rng, c.build, 500, c.domain))
		// A wider domain on the probe side: misses and no-image codes.
		rb := FromRelation(randRel(rng, c.probe, 1000, 2*c.domain))
		ix := indexJoin(lb, rb) // builds lb, the smaller side
		if direct := ix.probe.space.direct(); direct != c.direct || ix.probeIsL {
			t.Fatalf("%s ⋈ %s over domain %d: direct table %v (probe is l: %v), want %v", c.build, c.probe, c.domain, direct, ix.probeIsL, c.direct)
		}
		n := ix.probe.n
		sink := int32(0)
		if avg := testing.AllocsPerRun(100, func() {
			var b batch
			for lo := 0; lo < n; lo += probeBatch {
				for _, id := range ix.probe.ids(&b, lo, min(probeBatch, n-lo), false) {
					sink += ix.table.start[id+1] - ix.table.start[id]
				}
			}
		}); avg != 0 {
			t.Fatalf("%s ⋈ %s (direct %v): probe pass allocates %.1f times per run, want 0", c.build, c.probe, c.direct, avg)
		}
		if sink == 0 {
			t.Fatalf("%s ⋈ %s: the probe pass matched nothing", c.build, c.probe)
		}
	}
}

// TestJoinAllocatesPerColumnNotPerRow pins what count-then-fill buys: a
// join of encoded blocks allocates its tables and one code vector per
// output column, so its allocation count is the same at 15× the rows and
// 9× the output. The join's output is a head, so the run reads its columns
// and the pin covers their writing.
func TestJoinAllocatesPerColumnNotPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(2037))
	allocs := func(n int) (float64, int) {
		l := FromRelation(randRel(rng, "ABC", n, 8))
		r := FromRelation(randRel(rng, "BCD", n, 8))
		var out *ColBlock
		avg := testing.AllocsPerRun(20, func() {
			out, _ = JoinBlocksGoverned(nil, l, r)
			out.cols()
		})
		return avg, out.Len()
	}
	small, smallOut := allocs(200)
	big, bigOut := allocs(3000)
	if big != small || big > 40 {
		t.Fatalf("join allocates %.0f times for %d output rows and %.0f for %d, want one count of at most 40",
			small, smallOut, big, bigOut)
	}
}

// TestGovernedJoinAllocatesOneScope pins what governing a join costs in
// allocations: the operator's scope and nothing else — each range's meter
// lives on its goroutine's stack — whatever the row count, on the keyed
// path and on the product path (which charges one AddEach per probe row).
// max is the whole governed join's count at one range, its output's columns
// written; a meter that escaped to the heap would add one more, to the
// ungoverned join as well.
func TestGovernedJoinAllocatesOneScope(t *testing.T) {
	rng := rand.New(rand.NewSource(2038))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := govern.New(govern.Limits{Context: ctx})
	for _, c := range []struct {
		l, r string
		max  float64
	}{{"ABC", "BCD", 38}, {"AB", "CD", 24}} {
		allocs := func(n int) (plain, governed float64) {
			l := FromRelation(randRel(rng, c.l, n, 8))
			r := FromRelation(randRel(rng, c.r, n, 8))
			plain = testing.AllocsPerRun(20, func() {
				out, _ := JoinBlocksGoverned(nil, l, r)
				out.cols()
			})
			governed = testing.AllocsPerRun(20, func() {
				out, err := JoinBlocksGoverned(g, l, r)
				if err != nil {
					t.Fatal(err)
				}
				out.cols()
			})
			return plain, governed
		}
		smallPlain, small := allocs(40)
		bigPlain, big := allocs(600)
		if small > smallPlain+1 || big > bigPlain+1 || big != small || big > c.max {
			t.Fatalf("%s ⋈ %s: governed join allocates %.0f times at 40 rows and %.0f at 600, ungoverned %.0f and %.0f; want at most one more, the same at both sizes, at most %.0f",
				c.l, c.r, small, big, smallPlain, bigPlain, c.max)
		}
	}
}

// TestToRelationSlabDecode pins the decode at three allocations whatever
// the row count — the value slab, the row headers, the Relation — and checks
// the rows cut from the slab cannot alias: each has its capacity clipped to
// its length, so appending to one leaves its neighbour alone.
func TestToRelationSlabDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2036))
	b := FromRelation(randRel(rng, "ABC", 512, 16))
	if avg := testing.AllocsPerRun(100, func() { b.ToRelation() }); avg > 3 {
		t.Fatalf("ToRelation allocates %.1f times for %d rows, want at most 3", avg, b.Len())
	}
	rows := b.ToRelation().Rows()
	next := append(Tuple(nil), rows[1]...)
	if grown := append(rows[0], Int(-1)); cap(rows[0]) != len(rows[0]) || rows[1].Compare(next) != 0 || len(grown) != 4 {
		t.Fatalf("appending to row 0 (cap %d, len %d) reached row 1: %v, was %v", cap(rows[0]), len(rows[0]), rows[1], next)
	}
}

// TestColumnarJSONBoundaryInt64 checks boundary int64 values survive the
// full path the service exercises: JSON wire decode → tuple map →
// columnar dictionary → decode → JSON wire encode, with exact-value
// preservation (the PR 2 wire-format guarantee) and exact dictionary
// lookups at both extremes.
func TestColumnarJSONBoundaryInt64(t *testing.T) {
	wire := `{"attrs":["A","B"],"tuples":[` +
		`[-9223372036854775808,9223372036854775807],` +
		`[-9223372036854775807,9223372036854775806],` +
		`[-1,0],[0,1],[9223372036854775807,-9223372036854775808]]}`
	var r Relation
	if err := json.Unmarshal([]byte(wire), &r); err != nil {
		t.Fatal(err)
	}
	b := FromRelation(&r)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{math.MinInt64, math.MaxInt64} {
		for c := 0; c < 2; c++ {
			code := slices.Index(b.Dict(c), Int(v))
			if code < 0 {
				t.Fatalf("column %d dictionary lost boundary value %d", c, v)
			}
			if got := b.Dict(c)[code].AsInt(); got != v {
				t.Fatalf("column %d dictionary stores %d for %d", c, got, v)
			}
		}
	}
	back := b.ToRelation()
	if !back.Equal(&r) {
		t.Fatal("columnar round trip changed the relation")
	}
	out, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	var again Relation
	if err := json.Unmarshal(out, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Equal(&r) {
		t.Fatal("wire round trip after columnar pass changed the relation")
	}
	// The self-join through the columnar kernel preserves the exact values.
	joined, err := JoinBlocksGoverned(nil, b, b)
	if err != nil {
		t.Fatal(err)
	}
	if !joined.ToRelation().Equal(&r) {
		t.Fatal("columnar self-join changed boundary values")
	}
}
