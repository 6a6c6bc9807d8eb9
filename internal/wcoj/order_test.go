package wcoj_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

func TestVariableOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 1 + rng.Intn(6), Attrs: 6, MaxArity: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		order := wcoj.VariableOrder(h)
		got := relation.NewAttrSet(order...)
		if len(order) != h.Attrs().Len() || !got.Equal(h.Attrs()) {
			t.Fatalf("trial %d: order %v is not a permutation of %v", trial, order, h.Attrs())
		}
	}
}

// TestVariableOrderInvariantUnderEdgeReorder: the order must depend only on
// the scheme as a multiset of attribute sets — the property that lets a
// cached plan (derived in canonical edge order) serve every presentation of
// the scheme.
func TestVariableOrderInvariantUnderEdgeReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(5), Attrs: 6, MaxArity: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := wcoj.VariableOrder(h)
		edges := append([]relation.AttrSet(nil), h.Edges()...)
		for shuffle := 0; shuffle < 3; shuffle++ {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			g, err := hypergraph.New(edges)
			if err != nil {
				t.Fatal(err)
			}
			if got := wcoj.VariableOrder(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: order changed under edge reorder: %v vs %v", trial, got, want)
			}
		}
	}
}

// TestVariableOrderPrefixesConnected: on a connected scheme every proper
// prefix of the order must touch the next variable through some edge — the
// connected-prefix property that keeps trie levels constraining each other.
func TestVariableOrderPrefixesConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(5), Attrs: 6, MaxArity: 3, Connected: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		order := wcoj.VariableOrder(h)
		for i := 1; i < len(order); i++ {
			prefix := relation.NewAttrSet(order[:i]...)
			if !slices.ContainsFunc(h.Edges(), func(e relation.AttrSet) bool { return e.Contains(order[i]) && e.Overlaps(prefix) }) {
				t.Fatalf("trial %d: order[%d]=%q not adjacent to prefix %v on %s",
					trial, i, order[i], order[:i], h)
			}
		}
	}
}

func TestVariableOrderTriangle(t *testing.T) {
	h, err := hypergraph.New([]relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("B", "C"),
		relation.NewAttrSet("A", "C"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// All degrees equal: lexicographic tie-breaks all the way down.
	if got := wcoj.VariableOrder(h); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("triangle order = %v, want [A B C]", got)
	}
}

func TestVariableOrderPrefersHighDegree(t *testing.T) {
	// hub is in three edges, everything else in one: hub must come first
	// despite sorting lexicographically last.
	h := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("hub", "x1"), relation.NewAttrSet("hub", "x2"), relation.NewAttrSet("hub", "x3"),
	})
	order := wcoj.VariableOrder(h)
	if order[0] != "hub" {
		t.Errorf("star order starts with %q, want hub (degree 3): %v", order[0], order)
	}
}
