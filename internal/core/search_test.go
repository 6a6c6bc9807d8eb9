package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// TestHeadlineClaimByExhaustion verifies the paper's main statement on
// random instances by full enumeration: among ALL CPF join expressions there
// exists one whose derived program costs < r(a+5) × the optimal expression
// cost.
func TestHeadlineClaimByExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 60 && checked < 20; trial++ {
		h := randomConnectedScheme(rng, 2+rng.Intn(3), 3+rng.Intn(3), 3)
		db := randomDatabase(rng, h, 2+rng.Intn(8), 2)
		if db.Join().IsEmpty() {
			continue // Theorem 2's hypothesis
		}
		// Optimal expression cost by enumeration.
		trees, err := jointree.AllTrees(h)
		if err != nil {
			continue
		}
		optCost := int(^uint(0) >> 1)
		for _, tr := range trees {
			if c := tr.Cost(db); c < optCost {
				optCost = c
			}
		}
		best, err := BestProgramOverAllCPFTrees(h, db)
		if err != nil {
			continue // disconnected-CPF edge cases etc.
		}
		checked++
		qf := QuasiFactor(h.Len(), h.Attrs().Len())
		if best.Cost >= qf*optCost {
			t.Errorf("trial %d: no CPF tree yields a quasi-optimal program on %s (best %d, bound %d)",
				trial, h, best.Cost, qf*optCost)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked", checked)
	}
}

func TestBestProgramOverAllCPFTreesDisconnected(t *testing.T) {
	h, err := hypergraphParse("AB CD")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	db := randomDatabase(rng, h, 3, 2)
	if _, err := BestProgramOverAllCPFTrees(h, db); err == nil {
		t.Error("disconnected scheme accepted")
	}
}

// TestQuasiFactorQuick property-checks the bound arithmetic.
func TestQuasiFactorQuick(t *testing.T) {
	f := func(r, a uint8) bool {
		rr, aa := int(r%20)+1, int(a%30)+1
		return QuasiFactor(rr, aa) == rr*(aa+5) && QuasiFactor(rr, aa) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hypergraphParse is a tiny local alias to keep the test imports tidy.
func hypergraphParse(s string) (*hypergraph.Hypergraph, error) {
	return hypergraph.ParseScheme(s)
}
