package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// mkRel builds a relation over single-char attrs from int rows.
func mkRel(t *testing.T, scheme string, rows ...[]int64) *Relation {
	t.Helper()
	r := New(SchemaOfRunes(scheme))
	for _, row := range rows {
		if err := r.Insert(Ints(row...)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	return r
}

// nestedLoopJoin is an independent reference implementation of natural join
// used to validate the hash join.
func nestedLoopJoin(l, r *Relation) *Relation {
	common := l.Schema().AttrSet().Intersect(r.Schema().AttrSet())
	attrs := append([]string(nil), l.Schema().Attrs()...)
	for _, a := range r.Schema().Attrs() {
		if !l.Schema().Has(a) {
			attrs = append(attrs, a)
		}
	}
	out := New(MustSchema(attrs...))
	for _, lt := range l.Rows() {
		for _, rt := range r.Rows() {
			match := true
			for _, a := range common {
				lp, _ := l.Schema().Position(a)
				rp, _ := r.Schema().Position(a)
				if !lt[lp].Equal(rt[rp]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			row := make(Tuple, 0, len(attrs))
			row = append(row, lt...)
			for _, a := range r.Schema().Attrs() {
				if !l.Schema().Has(a) {
					rp, _ := r.Schema().Position(a)
					row = append(row, rt[rp])
				}
			}
			out.MustInsert(row)
		}
	}
	return out
}

func TestJoinBasic(t *testing.T) {
	l := mkRel(t, "AB", []int64{1, 10}, []int64{2, 20})
	r := mkRel(t, "BC", []int64{10, 100}, []int64{10, 101}, []int64{30, 300})
	got := Join(l, r)
	want := mkRel(t, "ABC", []int64{1, 10, 100}, []int64{1, 10, 101})
	if !got.Equal(want) {
		t.Errorf("Join = %s, want %s", got, want)
	}
}

func TestJoinColumnAlignment(t *testing.T) {
	// Right operand whose extra columns are not in sorted order relative to
	// its schema — regression test for the column-order bug where output
	// values were appended in sorted-attribute order instead of schema
	// order.
	l := mkRel(t, "AC", []int64{1, 5})
	r := New(SchemaOfRunes("CDB")) // columns C, D, B
	r.MustInsert(Ints(5, 7, 9))
	got := Join(l, r)
	// Output schema: A, C then D, B (r's order minus common C).
	wantSchema := MustSchema("A", "C", "D", "B")
	if !slices.Equal(got.Schema().Attrs(), wantSchema.Attrs()) {
		t.Fatalf("schema = %v, want %v", got.Schema(), wantSchema)
	}
	if got.Len() != 1 || got.Rows()[0].Compare(Ints(1, 5, 7, 9)) != 0 {
		t.Errorf("row = %v, want (1,5,7,9)", got.Rows()[0])
	}
}

func TestJoinNoCommonAttrsIsProduct(t *testing.T) {
	l := mkRel(t, "A", []int64{1}, []int64{2})
	r := mkRel(t, "B", []int64{10}, []int64{20}, []int64{30})
	got := Join(l, r)
	if got.Len() != 6 {
		t.Errorf("product has %d tuples, want 6", got.Len())
	}
}

func TestJoinEmptyOperand(t *testing.T) {
	l := mkRel(t, "AB")
	r := mkRel(t, "BC", []int64{1, 2})
	if got := Join(l, r); got.Len() != 0 {
		t.Errorf("join with empty operand has %d tuples", got.Len())
	}
	if got := Join(r, l); got.Len() != 0 {
		t.Errorf("join with empty operand has %d tuples", got.Len())
	}
}

func TestJoinSelf(t *testing.T) {
	r := mkRel(t, "AB", []int64{1, 2}, []int64{3, 4})
	got := Join(r, r)
	if !got.Equal(r) {
		t.Errorf("R ⋈ R = %s, want R", got)
	}
}

func TestJoinAgainstNestedLoopRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schemes := []string{"AB", "BC", "ABC", "CD", "AD", "BD", "A", "ABCD"}
	for trial := 0; trial < 200; trial++ {
		ls := schemes[rng.Intn(len(schemes))]
		rs := schemes[rng.Intn(len(schemes))]
		l := randRel(rng, ls, 1+rng.Intn(12), 3)
		r := randRel(rng, rs, 1+rng.Intn(12), 3)
		got := Join(l, r)
		want := nestedLoopJoin(l, r)
		if !got.Equal(want) {
			t.Fatalf("trial %d: Join(%s,%s) mismatch:\n%s\nvs\n%s", trial, ls, rs, got, want)
		}
	}
}

// randRel builds a random relation over single-char attrs.
func randRel(rng *rand.Rand, scheme string, size, domain int) *Relation {
	r := New(SchemaOfRunes(scheme))
	for i := 0; i < size; i++ {
		row := make(Tuple, r.Schema().Len())
		for c := range row {
			row[c] = Int(int64(rng.Intn(domain)))
		}
		r.MustInsert(row)
	}
	return r
}

func TestJoinCommutativeUpToColumnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		l := randRel(rng, "ABC", 1+rng.Intn(10), 3)
		r := randRel(rng, "BCD", 1+rng.Intn(10), 3)
		if !Join(l, r).Equal(Join(r, l)) {
			t.Fatalf("trial %d: join not commutative", trial)
		}
	}
}

func TestJoinAssociativeUpToColumnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		a := randRel(rng, "AB", 1+rng.Intn(8), 3)
		b := randRel(rng, "BC", 1+rng.Intn(8), 3)
		c := randRel(rng, "CD", 1+rng.Intn(8), 3)
		if !Join(Join(a, b), c).Equal(Join(a, Join(b, c))) {
			t.Fatalf("trial %d: join not associative", trial)
		}
	}
}

func TestSemijoin(t *testing.T) {
	l := mkRel(t, "AB", []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	r := mkRel(t, "BC", []int64{10, 0}, []int64{30, 0})
	got := Semijoin(l, r)
	want := mkRel(t, "AB", []int64{1, 10}, []int64{3, 30})
	if !got.Equal(want) {
		t.Errorf("Semijoin = %s, want %s", got, want)
	}
	if !slices.Equal(got.Schema().Attrs(), l.Schema().Attrs()) {
		t.Error("semijoin changed the schema")
	}
}

func TestSemijoinIsProjectionOfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 150; trial++ {
		l := randRel(rng, "ABC", 1+rng.Intn(10), 3)
		r := randRel(rng, "BCD", 1+rng.Intn(10), 3)
		want := MustProject(Join(l, r), l.Schema().AttrSet())
		if got := Semijoin(l, r); !got.Equal(want) {
			t.Fatalf("trial %d: l ⋉ r ≠ π_l(l ⋈ r)", trial)
		}
	}
}

func TestSemijoinNoCommonAttrs(t *testing.T) {
	l := mkRel(t, "A", []int64{1}, []int64{2})
	nonempty := mkRel(t, "B", []int64{9})
	empty := mkRel(t, "B")
	if got := Semijoin(l, nonempty); !got.Equal(l) {
		t.Error("l ⋉ nonempty-disjoint should be l")
	}
	if got := Semijoin(l, empty); got.Len() != 0 {
		t.Error("l ⋉ empty should be empty")
	}
}

func TestProject(t *testing.T) {
	r := mkRel(t, "ABC", []int64{1, 2, 3}, []int64{1, 5, 3}, []int64{2, 2, 3})
	got, err := Project(r, NewAttrSet("A", "C"))
	if err != nil {
		t.Fatal(err)
	}
	want := mkRel(t, "AC", []int64{1, 3}, []int64{2, 3})
	if !got.Equal(want) {
		t.Errorf("Project = %s, want %s (deduplicated)", got, want)
	}
}

func TestProjectMissingAttr(t *testing.T) {
	r := mkRel(t, "AB", []int64{1, 2})
	if _, err := Project(r, NewAttrSet("Z")); err == nil {
		t.Error("projection onto missing attribute accepted")
	}
}

func TestProjectEmptyAttrSet(t *testing.T) {
	r := mkRel(t, "AB", []int64{1, 2}, []int64{3, 4})
	got, err := Project(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("π_∅ of nonempty relation = %d tuples, want 1 (the empty tuple)", got.Len())
	}
	empty := mkRel(t, "AB")
	got, err = Project(empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("π_∅ of empty relation = %d tuples, want 0", got.Len())
	}
}

func TestJoinWithZeroAryRelation(t *testing.T) {
	r := mkRel(t, "AB", []int64{1, 2})
	unit := MustProject(r, nil) // {()} — the 0-ary unit
	if got := Join(r, unit); !got.Equal(r) {
		t.Error("R ⋈ {()} should be R")
	}
	zero := MustProject(mkRel(t, "AB"), nil) // {} — the 0-ary zero
	if got := Join(r, zero); got.Len() != 0 {
		t.Error("R ⋈ {} should be empty")
	}
}

func TestJoinAll(t *testing.T) {
	a := mkRel(t, "AB", []int64{1, 2})
	b := mkRel(t, "BC", []int64{2, 3})
	c := mkRel(t, "CD", []int64{3, 4})
	got, err := JoinAll(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Schema().Len() != 4 {
		t.Errorf("JoinAll = %s", got)
	}
	if _, err := JoinAll(); err == nil {
		t.Error("JoinAll() accepted zero relations")
	}
	single, err := JoinAll(a)
	if err != nil || !single.Equal(a) {
		t.Error("JoinAll of one relation should be identity")
	}
}
