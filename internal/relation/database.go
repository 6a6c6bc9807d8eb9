package relation

import (
	"fmt"
	"strings"
)

// Database is a database over a database scheme: an ordered multiset of
// relations. Index order is the identity of each relation scheme occurrence
// (the paper's 𝒟 is a multiset, so two entries may have equal schemas).
type Database struct {
	rels []*Relation
}

// NewDatabase builds a database from relations; at least one is required.
func NewDatabase(rels ...*Relation) (*Database, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("relation: database needs at least one relation")
	}
	for i, r := range rels {
		if r == nil {
			return nil, fmt.Errorf("relation: nil relation at index %d", i)
		}
	}
	return &Database{rels: append([]*Relation(nil), rels...)}, nil
}

// MustDatabase is NewDatabase that panics on error.
func MustDatabase(rels ...*Relation) *Database {
	db, err := NewDatabase(rels...)
	if err != nil {
		panic(err)
	}
	return db
}

// Len returns the number of relation scheme occurrences (r in Theorem 2).
func (d *Database) Len() int { return len(d.rels) }

// Relation returns the i-th relation.
func (d *Database) Relation(i int) *Relation { return d.rels[i] }

// Relations returns the underlying slice; callers must not modify it.
func (d *Database) Relations() []*Relation { return d.rels }

// Schemes returns the attribute set of each relation, in index order — the
// database scheme 𝒟 as a multiset.
func (d *Database) Schemes() []AttrSet {
	out := make([]AttrSet, len(d.rels))
	for i, r := range d.rels {
		out[i] = r.Schema().AttrSet()
	}
	return out
}

// Restrict returns the database restricted to the relation indexes in keep,
// in the order given — D[𝒟'] in the paper's notation.
func (d *Database) Restrict(keep []int) (*Database, error) {
	rels := make([]*Relation, len(keep))
	for i, k := range keep {
		if k < 0 || k >= len(d.rels) {
			return nil, fmt.Errorf("relation: restrict index %d out of range [0,%d)", k, len(d.rels))
		}
		rels[i] = d.rels[k]
	}
	return NewDatabase(rels...)
}

// Reduced returns the database whose relation i holds the rows of
// blocks[i], which must be a semijoin reduction of d's relation i (a subset
// of its rows): relations the reduction did not shrink are d's own, and the
// shrunk ones are block-backed (ToRelation), their rows decoded only if read.
func (d *Database) Reduced(blocks []*ColBlock) (*Database, error) {
	if len(blocks) != len(d.rels) {
		return nil, fmt.Errorf("relation: %d reduced blocks for %d relations", len(blocks), len(d.rels))
	}
	rels := make([]*Relation, len(d.rels))
	for i, r := range d.rels {
		rels[i] = r
		if blocks[i].Len() < r.Len() {
			rels[i] = blocks[i].ToRelation()
		}
	}
	return NewDatabase(rels...)
}

// Join computes ⋈D, the natural join of all relations, in index order.
// Callers that care about intermediate sizes should evaluate a join
// expression instead; Join is the reference result.
func (d *Database) Join() *Relation {
	out, _ := JoinAll(d.rels...) // d always has ≥ 1 relation
	return out
}

// TotalTuples returns Σ|R_i|, the inputs' contribution to the paper's cost.
func (d *Database) TotalTuples() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// PairwiseConsistent reports whether the database is locally (pairwise)
// consistent: for every pair of relations R(X), R(Y),
// π_X(R(X) ⋈ R(Y)) = R(X). (Example 3 builds a pairwise-consistent but
// globally inconsistent database.)
func (d *Database) PairwiseConsistent() bool {
	for i, x := range d.rels {
		for j, y := range d.rels {
			if i == j {
				continue
			}
			if Semijoin(x, y).Len() != x.Len() {
				return false
			}
		}
	}
	return true
}

// GloballyConsistent reports whether every relation equals the projection of
// ⋈D onto its scheme. The full join is computed once; prefer
// GloballyConsistentWith when it is already available.
func (d *Database) GloballyConsistent() bool {
	return d.GloballyConsistentWith(d.Join())
}

// GloballyConsistentWith is GloballyConsistent given a precomputed ⋈D.
func (d *Database) GloballyConsistentWith(full *Relation) bool {
	for _, r := range d.rels {
		p := MustProject(full, r.Schema().AttrSet())
		if !p.Equal(r) {
			return false
		}
	}
	return true
}

// String summarizes the database scheme and relation sizes.
func (d *Database) String() string {
	parts := make([]string, len(d.rels))
	for i, r := range d.rels {
		parts[i] = fmt.Sprintf("%s:%d", r.Schema(), r.Len())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
