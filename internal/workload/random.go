package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// RandomSchemeSpec parameterizes random scheme generation.
type RandomSchemeSpec struct {
	// Relations is the number of relation scheme occurrences.
	Relations int
	// Attrs is the size of the attribute pool ("a0", "a1", …).
	Attrs int
	// MaxArity bounds each relation scheme's size (arity is uniform in
	// [1, MaxArity]).
	MaxArity int
	// Connected requires the resulting hypergraph to be connected
	// (regenerate until it is).
	Connected bool
}

// RandomScheme draws a scheme from the spec using rng. With Connected set it
// retries until the hypergraph is connected (the spec must make that
// possible, e.g. MaxArity ≥ 2 for more than one relation).
func RandomScheme(rng *rand.Rand, spec RandomSchemeSpec) (*hypergraph.Hypergraph, error) {
	if spec.Relations < 1 || spec.Relations > 64 {
		return nil, fmt.Errorf("workload: relations must be in [1,64], got %d", spec.Relations)
	}
	if spec.Attrs < 1 || spec.MaxArity < 1 {
		return nil, fmt.Errorf("workload: attrs and max arity must be positive")
	}
	pool := make([]string, spec.Attrs)
	for i := range pool {
		pool[i] = fmt.Sprintf("a%d", i)
	}
	for attempt := 0; attempt < 10_000; attempt++ {
		edges := make([]relation.AttrSet, spec.Relations)
		for i := range edges {
			arity := 1 + rng.Intn(spec.MaxArity)
			picks := make([]string, arity)
			for j := range picks {
				picks[j] = pool[rng.Intn(spec.Attrs)]
			}
			edges[i] = relation.NewAttrSet(picks...)
		}
		h, err := hypergraph.New(edges)
		if err != nil {
			continue
		}
		if spec.Connected && !h.Connected(h.Full()) {
			continue
		}
		return h, nil
	}
	return nil, fmt.Errorf("workload: could not draw a%s scheme for %+v",
		map[bool]string{true: " connected", false: ""}[spec.Connected], spec)
}

// RandomDatabase fills each relation of the scheme with up to size random
// tuples over the integer domain [0, domain). Small domains force dense join
// matches; large domains make joins sparse.
func RandomDatabase(rng *rand.Rand, h *hypergraph.Hypergraph, size, domain int) (*relation.Database, error) {
	if size < 0 || domain < 1 {
		return nil, fmt.Errorf("workload: need size ≥ 0 and domain ≥ 1")
	}
	rels := make([]*relation.Relation, h.Len())
	for i := 0; i < h.Len(); i++ {
		schema := relation.MustSchema(h.Edge(i)...)
		rel := relation.New(schema)
		for k := 0; k < size; k++ {
			row := make(relation.Tuple, schema.Len())
			for c := range row {
				row[c] = relation.Int(int64(rng.Intn(domain)))
			}
			rel.MustInsert(row)
		}
		rels[i] = rel
	}
	return relation.NewDatabase(rels...)
}

// ChainScheme returns the acyclic scheme R1(x0,x1), R2(x1,x2), …,
// Rn(x_{n-1},x_n): a path of binary relations.
func ChainScheme(n int) (*hypergraph.Hypergraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: chain needs at least one relation")
	}
	edges := make([]relation.AttrSet, n)
	for i := 0; i < n; i++ {
		edges[i] = relation.NewAttrSet(fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
	}
	return hypergraph.New(edges)
}

// CliqueScheme returns the cyclic scheme with one binary relation per pair
// of n attributes — maximally cyclic for n ≥ 3.
func CliqueScheme(n int) (*hypergraph.Hypergraph, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: clique needs at least two attributes")
	}
	var edges []relation.AttrSet
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, relation.NewAttrSet(fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", j)))
		}
	}
	return hypergraph.New(edges)
}

// ChainDatabase builds a database over ChainScheme(n) where each relation is
// the "successor" relation on [0, domain): tuples (v, v+1). The chain join
// then has domain−n+1 tuples (ascending runs), a convenient acyclic
// workload with known output size.
func ChainDatabase(n, domain int) (*relation.Database, error) {
	h, err := ChainScheme(n)
	if err != nil {
		return nil, err
	}
	rels := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		schema := relation.MustSchema(fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
		rel := relation.New(schema)
		for v := 0; v < domain-1; v++ {
			rel.MustInsert(relation.Ints(int64(v), int64(v+1)))
		}
		rels[i] = rel
	}
	_ = h
	return relation.NewDatabase(rels...)
}

// DanglingChainDatabase is ChainDatabase with extra dangling tuples added to
// each relation that no full chain passes through — the classical workload
// where a full reducer pays off.
func DanglingChainDatabase(n, domain, dangling int) (*relation.Database, error) {
	db, err := ChainDatabase(n, domain)
	if err != nil {
		return nil, err
	}
	for i := 0; i < db.Len(); i++ {
		rel := db.Relation(i)
		for d := 0; d < dangling; d++ {
			// Values far outside the domain, unique per relation, so the
			// tuples join with nothing.
			base := int64(1000 + 100*i + d)
			rel.MustInsert(relation.Ints(base, -base))
		}
	}
	return db, nil
}
