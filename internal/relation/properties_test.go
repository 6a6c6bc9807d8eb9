package relation

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// relGen adapts the random-relation generator to testing/quick: quick
// drives the seeds, the properties hold for every draw.
type relGen struct {
	Seed   int64
	Scheme uint8
	Size   uint8
	Domain uint8
}

var propSchemes = []string{"AB", "BC", "ABC", "BCD", "AC", "CD"}

func (g relGen) left() *Relation {
	rng := rand.New(rand.NewSource(g.Seed))
	return randRel(rng, propSchemes[int(g.Scheme)%len(propSchemes)], int(g.Size%20), int(g.Domain%4)+1)
}

func (g relGen) right() *Relation {
	rng := rand.New(rand.NewSource(g.Seed ^ 0x5DEECE66D))
	return randRel(rng, propSchemes[int(g.Scheme/7)%len(propSchemes)], int(g.Size/3%20), int(g.Domain%4)+1)
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200}
}

// TestQuickSemijoinShrinks: l ⋉ r ⊆ l, always.
func TestQuickSemijoinShrinks(t *testing.T) {
	f := func(g relGen) bool {
		l, r := g.left(), g.right()
		s := Semijoin(l, r)
		if s.Len() > l.Len() {
			return false
		}
		for _, row := range s.Rows() {
			if !l.Contains(row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestQuickSemijoinIdempotent: (l ⋉ r) ⋉ r = l ⋉ r.
func TestQuickSemijoinIdempotent(t *testing.T) {
	f := func(g relGen) bool {
		l, r := g.left(), g.right()
		once := Semijoin(l, r)
		twice := Semijoin(once, r)
		return once.Equal(twice)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestQuickSemijoinPreservesJoin: (l ⋉ r) ⋈ r = l ⋈ r — the identity the
// full reducer and Algorithm 2 both rely on.
func TestQuickSemijoinPreservesJoin(t *testing.T) {
	f := func(g relGen) bool {
		l, r := g.left(), g.right()
		return Join(Semijoin(l, r), r).Equal(Join(l, r))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestQuickProjectIdempotent: π_X(π_X(r)) = π_X(r).
func TestQuickProjectIdempotent(t *testing.T) {
	f := func(g relGen, pick uint8) bool {
		l := g.left()
		attrs := l.Schema().AttrSet()
		var sub AttrSet
		for i, a := range attrs {
			if pick&(1<<uint(i%8)) != 0 {
				sub = sub.Union(NewAttrSet(a))
			}
		}
		once := MustProject(l, sub)
		twice := MustProject(once, sub)
		return once.Equal(twice)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinProjectBound: |π_X(l ⋈ r)| ≤ |l| when X ⊆ attrs(l) — the
// inequality at the heart of the paper's Theorem 2 proof.
func TestQuickJoinProjectBound(t *testing.T) {
	f := func(g relGen) bool {
		l, r := g.left(), g.right()
		p := MustProject(Join(l, r), l.Schema().AttrSet())
		return p.Len() <= l.Len()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinMonotone: adding tuples to an operand never removes result
// tuples.
func TestQuickJoinMonotone(t *testing.T) {
	f := func(g relGen, extra uint8) bool {
		l, r := g.left(), g.right()
		small := Join(l, r)
		bigger := l.Clone()
		rng := rand.New(rand.NewSource(int64(extra)))
		for i := 0; i < int(extra%5); i++ {
			row := make(Tuple, bigger.Schema().Len())
			for c := range row {
				row[c] = Int(int64(rng.Intn(4)))
			}
			bigger.MustInsert(row)
		}
		grown := Join(bigger, r)
		for _, row := range small.Rows() {
			if !grown.Contains(row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestQuickTSVRoundTrip: WriteTSV/ReadTSV is the identity on relations.
func TestQuickTSVRoundTrip(t *testing.T) {
	f := func(g relGen) bool {
		l := g.left()
		var buf bytes.Buffer
		if err := l.WriteTSV(&buf); err != nil {
			return false
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			return false
		}
		return back.Equal(l)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
