package relation

import (
	"slices"
	"testing"
)

// exampleDB is a tiny database over the paper's 4-cycle scheme whose links
// increment mod 3 plus a closing bottom tuple: pairwise consistent, join of
// exactly one tuple.
func exampleDB(t *testing.T) *Database {
	t.Helper()
	mk := func(scheme string) *Relation { return New(SchemaOfRunes(scheme)) }
	r1, r2, r3, r4 := mk("ABC"), mk("CDE"), mk("EFG"), mk("GHA")
	for v := int64(0); v < 3; v++ {
		next := (v + 1) % 3
		r1.MustInsert(Ints(v, 0, next))
		r2.MustInsert(Ints(v, 0, next))
		r3.MustInsert(Ints(v, 0, next))
		r4.MustInsert(Ints(v, 0, next))
	}
	for _, r := range []*Relation{r1, r2, r3, r4} {
		r.MustInsert(Ints(-1, 0, -1))
	}
	return MustDatabase(r1, r2, r3, r4)
}

func TestNewDatabase(t *testing.T) {
	if _, err := NewDatabase(); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := NewDatabase(nil); err == nil {
		t.Error("nil relation accepted")
	}
	db := exampleDB(t)
	if db.Len() != 4 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestDatabaseSchemesAndAttrs(t *testing.T) {
	db := exampleDB(t)
	schemes := db.Schemes()
	if len(schemes) != 4 || !schemes[0].Equal(AttrSetOfRunes("ABC")) {
		t.Errorf("Schemes = %v", schemes)
	}
}

func TestDatabaseJoinSingleTuple(t *testing.T) {
	db := exampleDB(t)
	full := db.Join()
	if full.Len() != 1 {
		t.Fatalf("⋈D has %d tuples, want 1", full.Len())
	}
	row := full.Rows()[0]
	for _, v := range row {
		if v.Kind() == KindInt && v.AsInt() > 0 {
			t.Errorf("surviving tuple should be the bottom/payload tuple, got %v", row)
		}
	}
}

func TestDatabaseConsistency(t *testing.T) {
	db := exampleDB(t)
	if !db.PairwiseConsistent() {
		t.Error("Example-3-style database should be pairwise consistent")
	}
	if db.GloballyConsistent() {
		t.Error("Example-3-style database must not be globally consistent")
	}
	// A globally consistent database: project a single relation's join.
	full := db.Join()
	p1 := MustProject(full, AttrSetOfRunes("AB"))
	p2 := MustProject(full, AttrSetOfRunes("BC"))
	gc := MustDatabase(p1, p2)
	if !gc.GloballyConsistent() {
		t.Error("projections of a join should be globally consistent")
	}
	if !gc.PairwiseConsistent() {
		t.Error("globally consistent implies pairwise consistent")
	}
}

func TestDatabaseRestrict(t *testing.T) {
	db := exampleDB(t)
	sub, err := db.Restrict([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || !slices.Equal(sub.Relation(0).Schema().Attrs(), SchemaOfRunes("EFG").Attrs()) {
		t.Errorf("Restrict wrong: %s", sub)
	}
	if _, err := db.Restrict([]int{9}); err == nil {
		t.Error("out-of-range restrict accepted")
	}
}

func TestDatabaseTotalTuples(t *testing.T) {
	db := exampleDB(t)
	if got := db.TotalTuples(); got != 16 {
		t.Errorf("TotalTuples = %d, want 16", got)
	}
}

func TestPairwiseConsistencyDetectsDangling(t *testing.T) {
	r1 := New(SchemaOfRunes("AB"))
	r1.MustInsert(Ints(1, 1))
	r1.MustInsert(Ints(2, 2)) // dangling: no B=2 in r2
	r2 := New(SchemaOfRunes("BC"))
	r2.MustInsert(Ints(1, 1))
	db := MustDatabase(r1, r2)
	if db.PairwiseConsistent() {
		t.Error("dangling tuple not detected")
	}
}
