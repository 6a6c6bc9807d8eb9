package hypergraph

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func paperScheme(t *testing.T) *Hypergraph {
	t.Helper()
	h, err := ParseScheme("ABC CDE EFG GHA")
	if err != nil {
		t.Fatalf("ParseScheme: %v", err)
	}
	return h
}

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 2, 5)
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
	got := m.Indexes()
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Errorf("Indexes = %v", got)
	}
	if m.With(1) != MaskOf(0, 1, 2, 5) || m.Without(2) != MaskOf(0, 5) {
		t.Error("With/Without wrong")
	}
	if FullMask(3) != MaskOf(0, 1, 2) {
		t.Error("FullMask wrong")
	}
	if FullMask(64) != ^Mask(0) {
		t.Error("FullMask(64) wrong")
	}
	if m.String() != "{0,2,5}" {
		t.Errorf("String = %q", m.String())
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("no edges accepted")
	}
	if _, err := New([]relation.AttrSet{nil}); err == nil {
		t.Error("empty edge accepted")
	}
	edges := make([]relation.AttrSet, 65)
	for i := range edges {
		edges[i] = relation.NewAttrSet("A")
	}
	if _, err := New(edges); err == nil {
		t.Error("65 edges accepted")
	}
}

func TestParseSchemeDisplayNames(t *testing.T) {
	h := paperScheme(t)
	if h.Len() != 4 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.DisplayName(3) != "GHA" {
		t.Errorf("DisplayName(3) = %q, want GHA (declaration order preserved)", h.DisplayName(3))
	}
	if !h.Edge(3).Equal(relation.AttrSetOfRunes("AGH")) {
		t.Errorf("Edge(3) = %v", h.Edge(3))
	}
	if !h.Attrs().Equal(relation.AttrSetOfRunes("ABCDEFGH")) {
		t.Errorf("Attrs = %v", h.Attrs())
	}
}

func TestAttrsOf(t *testing.T) {
	h := paperScheme(t)
	got := h.AttrsOf(MaskOf(0, 2))
	if !got.Equal(relation.AttrSetOfRunes("ABCEFG")) {
		t.Errorf("AttrsOf = %v", got)
	}
	if h.AttrsOf(0) != nil {
		t.Error("AttrsOf(∅) should be empty")
	}
}

func TestComponents(t *testing.T) {
	h := paperScheme(t)
	// ABC and EFG share no attributes: two components.
	comps := h.Components(MaskOf(0, 2))
	if len(comps) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	if comps[0] != MaskOf(0) || comps[1] != MaskOf(2) {
		t.Errorf("Components order = %v", comps)
	}
	// The full 4-cycle is connected.
	if comps := h.Components(h.Full()); len(comps) != 1 || comps[0] != h.Full() {
		t.Errorf("full scheme components = %v", comps)
	}
	// ABC and CDE share C.
	if comps := h.Components(MaskOf(0, 1)); len(comps) != 1 {
		t.Errorf("adjacent pair components = %v", comps)
	}
	if got := h.Components(0); got != nil {
		t.Errorf("Components(∅) = %v", got)
	}
}

func TestConnected(t *testing.T) {
	h := paperScheme(t)
	if !h.Connected(h.Full()) {
		t.Error("4-cycle should be connected")
	}
	if h.Connected(MaskOf(0, 2)) {
		t.Error("opposite pair should be disconnected")
	}
	if !h.Connected(MaskOf(1)) {
		t.Error("singleton should be connected")
	}
	if h.Connected(0) {
		t.Error("empty mask should not be connected")
	}
	// Removing one edge from the cycle keeps it connected (it is a path).
	for i := 0; i < 4; i++ {
		if !h.Connected(h.Full().Without(i)) {
			t.Errorf("cycle minus edge %d should be connected", i)
		}
	}
}

func TestOverlapping(t *testing.T) {
	h := paperScheme(t)
	if !h.Overlapping(MaskOf(0), MaskOf(1)) || h.Overlapping(MaskOf(0), MaskOf(2)) {
		t.Error("Overlapping wrong")
	}
	// Overlapping differs from Connected of the union for non-adjacent but
	// transitively connected sets: {ABC} and {EFG} do not overlap even
	// though the full scheme is connected.
	if h.Overlapping(MaskOf(0), MaskOf(2)) {
		t.Error("ABC and EFG must not overlap")
	}
}

func TestDuplicateSchemes(t *testing.T) {
	h, err := ParseScheme("AB AB BC")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Connected(h.Full()) {
		t.Error("duplicated scheme should be connected")
	}
	if got := h.Components(MaskOf(0, 1)); len(got) != 1 {
		t.Errorf("duplicate edges should connect to each other: %v", got)
	}
}

func TestConnectivityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		edges := make([]relation.AttrSet, n)
		for i := range edges {
			k := 1 + rng.Intn(3)
			attrs := make([]string, k)
			for j := range attrs {
				attrs[j] = string(rune('A' + rng.Intn(6)))
			}
			edges[i] = relation.NewAttrSet(attrs...)
		}
		h, err := New(edges)
		if err != nil {
			t.Fatal(err)
		}
		for mask := Mask(1); mask <= h.Full(); mask++ {
			want := bruteConnected(h, mask)
			if got := h.Connected(mask); got != want {
				t.Fatalf("trial %d: Connected(%v) = %v, want %v on %s", trial, mask, got, want, h)
			}
			// Components partition the mask and are each connected.
			var union Mask
			for _, c := range h.Components(mask) {
				if !bruteConnected(h, c) {
					t.Fatalf("component %v not connected", c)
				}
				if union&c != 0 {
					t.Fatalf("components overlap")
				}
				union |= c
			}
			if union != mask {
				t.Fatalf("components do not cover mask")
			}
		}
	}
}

// bruteConnected is an O(n³) reference connectivity check.
func bruteConnected(h *Hypergraph, mask Mask) bool {
	idx := mask.Indexes()
	if len(idx) == 0 {
		return false
	}
	reach := map[int]bool{idx[0]: true}
	for changed := true; changed; {
		changed = false
		for _, i := range idx {
			if reach[i] {
				continue
			}
			for _, j := range idx {
				if reach[j] && h.Edge(i).Overlaps(h.Edge(j)) {
					reach[i] = true
					changed = true
				}
			}
		}
	}
	for _, i := range idx {
		if !reach[i] {
			return false
		}
	}
	return true
}

// TestAttrsOfUnion: AttrsOf distributes over mask union.
func TestAttrsOfUnion(t *testing.T) {
	h := paperScheme(t)
	for a := Mask(1); a <= h.Full(); a++ {
		for b := Mask(1); b <= h.Full(); b++ {
			want := h.AttrsOf(a).Union(h.AttrsOf(b))
			if got := h.AttrsOf(a | b); !got.Equal(want) {
				t.Fatalf("AttrsOf(%v|%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}
