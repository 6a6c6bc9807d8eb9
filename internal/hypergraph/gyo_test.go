package hypergraph

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func mustParse(t *testing.T, s string) *Hypergraph {
	t.Helper()
	h, err := ParseScheme(s)
	if err != nil {
		t.Fatalf("ParseScheme(%q): %v", s, err)
	}
	return h
}

func TestGYOAcyclicCases(t *testing.T) {
	cases := []struct {
		scheme string
		want   bool
	}{
		{"AB BC CD", true},           // chain
		{"AB AC AD", true},           // star
		{"ABC BCD CDE", true},        // overlapping chain
		{"ABC CDE EFG GHA", false},   // the paper's 4-cycle
		{"AB BC CA", false},          // triangle
		{"ABC ABD ACD BCD", false},   // 3-uniform cycle
		{"AB", true},                 // single edge
		{"AB AB", true},              // duplicate edges
		{"ABC AB BC", true},          // edges subsumed by a big edge
		{"AB BC CA ABC", true},       // triangle + covering edge is acyclic
		{"AB CD", true},              // disconnected but acyclic
		{"AB BC CA DE EF FD", false}, // two triangles
		{"ABCDE AB BC CD DE EA", true} /* covered cycle */}
	for _, c := range cases {
		h := mustParse(t, c.scheme)
		if got := h.Acyclic(); got != c.want {
			t.Errorf("Acyclic(%s) = %v, want %v", c.scheme, got, c.want)
		}
	}
}

func TestGYOJoinTreeValid(t *testing.T) {
	for _, scheme := range []string{"AB BC CD", "AB AC AD", "ABC BCD CDE", "ABC AB BC", "AB CD"} {
		h := mustParse(t, scheme)
		jt, ok := h.GYO()
		if !ok {
			t.Fatalf("GYO(%s) reported cyclic", scheme)
		}
		if err := jt.Validate(h); err != nil {
			t.Errorf("GYO(%s): %v", scheme, err)
		}
		// Exactly one root; every non-root has a parent; removal order
		// covers all non-roots.
		roots := 0
		for _, p := range jt.Parent {
			if p == -1 {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("GYO(%s): %d roots", scheme, roots)
		}
		if len(jt.RemovalOrder) != h.Len()-1 {
			t.Errorf("GYO(%s): removal order has %d entries, want %d", scheme, len(jt.RemovalOrder), h.Len()-1)
		}
	}
}

func TestGYOCyclicReturnsNil(t *testing.T) {
	h := mustParse(t, "AB BC CA")
	if jt, ok := h.GYO(); ok || jt != nil {
		t.Error("GYO accepted a triangle")
	}
}

// TestGYOAgreesWithEnumeration cross-checks GYO against a brute-force
// acyclicity oracle on random small schemes: a scheme is acyclic iff some
// join tree over the edges satisfies the running-intersection property.
func TestGYOAgreesWithEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(4)
		edges := make([]relation.AttrSet, n)
		for i := range edges {
			k := 1 + rng.Intn(3)
			attrs := make([]string, k)
			for j := range attrs {
				attrs[j] = string(rune('A' + rng.Intn(5)))
			}
			edges[i] = relation.NewAttrSet(attrs...)
		}
		h, err := New(edges)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteAcyclic(h)
		if got := h.Acyclic(); got != want {
			t.Fatalf("trial %d: Acyclic(%s) = %v, want %v", trial, h, got, want)
		}
	}
}

// bruteAcyclic enumerates all parent functions (rooted spanning trees over
// the complete graph of edges) and checks the running-intersection property
// for each; only feasible for tiny n.
func bruteAcyclic(h *Hypergraph) bool {
	n := h.Len()
	if n == 1 {
		return true
	}
	parent := make([]int, n)
	var try func(root, i int) bool
	try = func(root, i int) bool {
		if i == n {
			jt := &JoinTree{Parent: parent, Root: root}
			return jt.Validate(h) == nil && isTree(parent, root)
		}
		if i == root {
			parent[i] = -1
			return try(root, i+1)
		}
		for p := 0; p < n; p++ {
			if p == i {
				continue
			}
			parent[i] = p
			if try(root, i+1) {
				return true
			}
		}
		return false
	}
	for root := 0; root < n; root++ {
		if try(root, 0) {
			return true
		}
	}
	return false
}

// isTree checks the parent function is acyclic (reaches the root).
func isTree(parent []int, root int) bool {
	for i := range parent {
		seen := map[int]bool{}
		for v := i; v != root; v = parent[v] {
			if v == -1 || seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}
