package workload

import (
	"testing"
)

// TestAdversarialCorpusLoads: the embedded corpus parses, validates, and
// generates deterministically, and every explosion shape named in the
// corpus design is represented.
func TestAdversarialCorpusLoads(t *testing.T) {
	cases, err := AdversarialCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 6 {
		t.Fatalf("corpus has %d cases, want at least 6", len(cases))
	}
	wantNames := []string{
		"late_filter", "product_pair", "self_join_pairs",
		"skewed_cycle", "star_fanout", "triple_product", "unrelated_unary",
	}
	byName := map[string]AdversarialCase{}
	for _, c := range cases {
		byName[c.Name] = c
	}
	for _, n := range wantNames {
		if _, ok := byName[n]; !ok {
			t.Errorf("corpus missing case %q", n)
		}
	}

	for _, c := range cases {
		h, err := c.Hypergraph()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		db, err := c.Database()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if db.Len() != h.Len() {
			t.Fatalf("%s: %d relations for %d edges", c.Name, db.Len(), h.Len())
		}
		// Deterministic: a second build is tuple-identical.
		db2, err := c.Database()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < db.Len(); i++ {
			if !db.Relation(i).Equal(db2.Relation(i)) {
				t.Fatalf("%s: relation %d not deterministic across builds", c.Name, i)
			}
		}
	}

	// The gauntlet needs both acyclic product shapes and a cyclic core.
	cyclic := 0
	for _, c := range cases {
		h, _ := c.Hypergraph()
		if !h.Acyclic() {
			cyclic++
		}
	}
	if cyclic == 0 {
		t.Fatal("corpus has no cyclic case")
	}
}

// TestAdversarialCaseValidation rejects the malformed shapes the loader
// must refuse.
func TestAdversarialCaseValidation(t *testing.T) {
	good := AdversarialCase{
		Name: "x", Scheme: "AB BC", Generator: "uniform",
		Size: 10, Domain: 5, Seed: 1, Budget: 100,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid case rejected: %v", err)
	}
	bad := []AdversarialCase{
		{},
		{Name: "x", Scheme: "", Generator: "uniform", Size: 10, Domain: 5, Budget: 100},
		{Name: "x", Scheme: "AB", Generator: "uniform", Size: 0, Domain: 5, Budget: 100},
		{Name: "x", Scheme: "AB", Generator: "uniform", Size: 10, Domain: 5, Budget: 0},
		{Name: "x", Scheme: "AB", Generator: "zipf", Skew: 1, Size: 10, Domain: 5, Budget: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad case %d accepted", i)
		}
	}
	if _, err := (AdversarialCase{
		Name: "x", Scheme: "AB", Generator: "nope",
		Size: 10, Domain: 5, Budget: 100,
	}).Database(); err == nil {
		t.Error("unknown generator accepted")
	}
}
