// Package workload generates the schemes and databases used by the
// experiments: the paper's Example-3 cyclic family, random connected schemes
// and databases, and the classic chain/star/clique scheme shapes.
package workload

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// Bottom is the distinguished link value that closes the cycle in the
// Example-3 family; it never collides with the Z_M link values 0..M-1.
const Bottom = int64(-1)

// CycleSpec parameterizes the Example-3 family: a cycle of Relations
// ternary relation schemes R_i(link_i, payload_i, link_{i+1}). Link
// attributes carry values in Z_M; relations 0..n-2 relate equal link values
// (next = link) and the last relation shifts by one (next = link+1 mod M),
// so the cycle can never close through Z_M — only through one distinguished
// Bottom tuple present in every relation. Payload attributes replicate each
// link combination Payloads[i] times, setting relation i's size to
// M·Payloads[i] + 1.
//
// Properties (verified by the package tests):
//
//   - the database is pairwise consistent, so a full reducer removes
//     nothing, yet ⋈D has exactly one tuple (the Bottom tuple): it is not
//     globally consistent;
//   - every adjacent join is near-Cartesian: |R_i ⋈ R_{i+1}| =
//     M·Payloads[i]·Payloads[i+1] + 1 ≈ |R_i|·|R_{i+1}|/M;
//   - non-adjacent relations share no attributes, so their joins are exact
//     Cartesian products.
//
// With the Example3 size profile (sizes ≈ q³, q², q, q² around the 4-cycle
// — the largest and smallest relations opposite each other) the optimal
// expression is the paper's non-CPF (R1 ⋈ R3) ⋈ (R2 ⋈ R4): its Cartesian
// products cost |R1|·|R3| + |R2|·|R4| ≈ 2q⁴, while every CPF (and every
// linear) expression must pay an adjacent near-Cartesian join or a triple
// join of order q⁵ — an unbounded gap as q grows. This mirrors Example 3's
// 10^{4k+1} vs 2·10^{5k} with q = 10^k.
type CycleSpec struct {
	// Relations is the cycle length (number of relations, ≥ 3, ≤ 13).
	Relations int
	// M is the link-domain size (≥ 2).
	M int64
	// Payloads gives each relation's payload count (length Relations, all
	// ≥ 1); relation i has M·Payloads[i] + 1 tuples.
	Payloads []int64
}

// UniformCycle is a CycleSpec with the same payload count p for every
// relation.
func UniformCycle(n int, m, p int64) CycleSpec {
	payloads := make([]int64, n)
	for i := range payloads {
		payloads[i] = p
	}
	return CycleSpec{Relations: n, M: m, Payloads: payloads}
}

// Example3 is the paper-shaped instance at scale q (even, ≥ 2): a 4-cycle
// with link domain 2 and relation sizes ≈ q³, q², q, q², so that the
// cross-product plan costs ≈ 2q⁴ while every CPF expression costs Ω(q⁵)/4.
// The paper's k-th instance corresponds to q = 10^k.
func Example3(q int64) (CycleSpec, error) {
	if q < 2 || q%2 != 0 {
		return CycleSpec{}, fmt.Errorf("workload: Example3 scale must be even and ≥ 2, got %d", q)
	}
	return CycleSpec{
		Relations: 4,
		M:         2,
		Payloads:  []int64{q * q * q / 2, q * q / 2, q / 2, q * q / 2},
	}, nil
}

// Validate checks the spec is usable.
func (s CycleSpec) Validate() error {
	if s.Relations < 3 {
		return fmt.Errorf("workload: cycle needs at least 3 relations, got %d", s.Relations)
	}
	if s.Relations > 13 {
		return fmt.Errorf("workload: cycle of %d relations exceeds the 26-attribute alphabet", s.Relations)
	}
	if s.M < 2 {
		return fmt.Errorf("workload: link domain M must be at least 2, got %d", s.M)
	}
	if len(s.Payloads) != s.Relations {
		return fmt.Errorf("workload: %d payload counts for %d relations", len(s.Payloads), s.Relations)
	}
	for i, p := range s.Payloads {
		if p < 1 {
			return fmt.Errorf("workload: payload count %d of relation %d must be at least 1", p, i)
		}
	}
	return nil
}

// CycleScheme returns the scheme hypergraph of the family: Relations=4
// gives exactly the paper's {ABC, CDE, EFG, GHA}. Relation i has attributes
// (link_i, payload_i, link_{i+1}) drawn from the alphabet A, B, C, …: link
// attributes sit at even offsets, payloads at odd offsets.
func (s CycleSpec) CycleScheme() (*hypergraph.Hypergraph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	names := ""
	for i := 0; i < s.Relations; i++ {
		link := string(rune('A' + 2*i))
		pay := string(rune('A' + 2*i + 1))
		next := string(rune('A' + (2*i+2)%(2*s.Relations)))
		if i > 0 {
			names += " "
		}
		names += link + pay + next
	}
	return hypergraph.ParseScheme(names)
}

// CycleDatabase builds the family's database; see CycleSpec for its
// properties.
func (s CycleSpec) CycleDatabase() (*relation.Database, error) {
	h, err := s.CycleScheme()
	if err != nil {
		return nil, err
	}
	rels := make([]*relation.Relation, s.Relations)
	for i := 0; i < s.Relations; i++ {
		schema := relation.MustSchema(relationColumns(h, i)...)
		rel := relation.New(schema)
		shift := int64(0)
		if i == s.Relations-1 {
			shift = 1 // the one twisted link that keeps the cycle open
		}
		for link := int64(0); link < s.M; link++ {
			next := (link + shift) % s.M
			for pay := int64(0); pay < s.Payloads[i]; pay++ {
				rel.MustInsert(relation.Ints(link, pay, next))
			}
		}
		rel.MustInsert(relation.Ints(Bottom, 0, Bottom))
		rels[i] = rel
	}
	return relation.NewDatabase(rels...)
}

// relationColumns returns relation i's columns in (link, payload, next)
// order, matching the declaration order in CycleScheme.
func relationColumns(h *hypergraph.Hypergraph, i int) []string {
	name := h.DisplayName(i)
	cols := make([]string, 0, len(name))
	for _, r := range name {
		cols = append(cols, string(r))
	}
	return cols
}

// Sizes returns each relation's cardinality, M·Payloads[i] + 1.
func (s CycleSpec) Sizes() []int64 {
	out := make([]int64, s.Relations)
	for i, p := range s.Payloads {
		out[i] = s.M*p + 1
	}
	return out
}
