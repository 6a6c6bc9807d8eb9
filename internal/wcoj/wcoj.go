// Package wcoj implements a worst-case-optimal join backend: Leapfrog
// Triejoin (Veldhuizen, ICDT 2013 — see PAPERS.md) computing ⋈D
// attribute-by-attribute instead of relation-by-relation.
//
// The paper's Example 3 exhibits cyclic schemes on which *every*
// Cartesian-product-free join expression — and hence every pairwise plan,
// however well ordered — is unboundedly worse than optimal. Worst-case
// optimal joins sidestep the pairwise bottleneck entirely: a global order
// is fixed over the scheme's attributes (variables), each relation is
// trie-indexed along that order, and the join is a nested multiway
// intersection — for each binding of the first variable present in every
// relation containing it, recurse on the second, and so on. No pairwise
// intermediate is ever materialized; the only tuples produced are the
// output itself, and the total work is bounded by the AGM fractional-cover
// bound rather than by the best pairwise plan.
//
// The package provides:
//
//   - VariableOrder: a deterministic global attribute order for a scheme,
//     preferring orders whose prefixes stay connected (order.go);
//   - trie indexes with the classical open/up/next/seek iterator interface
//     (trie.go). A trie is the relation's resident columnar block, columns
//     permuted into variable order and rows sorted lexicographically by
//     uint32 dictionary code: level d is code column d, nothing is decoded
//     to build or walk it, and it is built once per relation snapshot —
//     memoized on the relation, so every later query reuses it until ingest
//     replaces the relation (columns.go);
//   - per-query dictionary alignment (alignTries in trie.go): dictionaries
//     are per relation, so for each variable the dictionaries of the
//     relations carrying it are merged into one sorted value list and a
//     monotone local-code → aligned-code table per trie level;
//   - the leapfrog k-way intersection of trie levels over aligned codes —
//     integer comparisons only (leapfrog.go);
//   - Join / JoinGoverned: the full multiway join over []uint32 bindings,
//     decoding only the tuples it emits, with governed variants charging
//     every index entry (resident or not) and every output tuple against a
//     govern.Governor and polling deadlines mid-iteration (join.go), and a
//     partition-parallel variant that splits the outermost variable's key
//     range across workers (parallel.go).
//
// The engine exposes all of this as StrategyWCOJ and makes it the last rung
// of the auto degradation ladder on cyclic schemes, behind the program and
// the classical routes.
package wcoj

import (
	"fmt"
	"sync/atomic"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Result is the outcome of a governed join: the output plus the
// accounting an EXPLAIN wants.
type Result struct {
	// Output is ⋈D over the variable order's schema (one column per
	// variable, in order).
	Output *relation.Relation
	// TrieTuples is the number of index entries read — Σ|Rᵢ|, since each
	// trie re-sorts its relation without generating new tuples. It is
	// charged in full whether an index was resident or built.
	TrieTuples int64
	// TriesBuilt is how many of the db.Len() indexes this call had to build
	// (encode and sort) because no earlier query had left them resident on
	// the relation snapshot; the rest were reused.
	TriesBuilt int
	// Vars is the global variable order the join ran with.
	Vars []string
	// Workers is the number of goroutines enumeration used (1 = sequential).
	Workers int
}

// Join computes the natural join of db along the given variable order with
// no resource governance; order must cover exactly the scheme's attributes
// (VariableOrder provides one).
func Join(db *relation.Database, order []string) (*relation.Relation, error) {
	res, err := JoinGoverned(db, order, nil, 1)
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// JoinGoverned computes the natural join of db along the given variable
// order under gov (nil = no limits), enumerating with up to workers
// goroutines (values below 2 run sequentially). Each trie charges one tuple
// per index entry under the operator "wcoj.trie" (one scope per relation,
// so MaxIntermediateTuples bounds any single index) before it is fetched
// from the relation or built, so charges do not depend on what earlier
// queries left resident; enumeration charges each output tuple — and polls
// cancellation/deadline on every leapfrog step, even when nothing is
// emitted — under "wcoj.join".
func JoinGoverned(db *relation.Database, order []string, gov *govern.Governor, workers int) (*Result, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("wcoj: empty database")
	}
	if err := checkOrder(db, order); err != nil {
		return nil, err
	}
	tries := make([]*trieIndex, db.Len())
	var trieTuples int64
	built := 0
	for i := 0; i < db.Len(); i++ {
		var sp *obs.Span
		if parent := gov.Span(); parent != nil {
			sp = parent.Child(obs.KindTrie, "trie "+db.Relation(i).Schema().String())
		}
		scope, err := gov.Begin("wcoj.trie")
		if err != nil {
			sp.End()
			return nil, err
		}
		tr, err := FromColumns(db.Relation(i), order, scope)
		if err != nil {
			sp.Note("failed: %v", err)
			sp.End()
			return nil, err
		}
		if tr.built {
			built++
			sp.Note("built")
		} else {
			sp.Note("resident")
		}
		sp.AddTuples(int64(tr.entries()))
		sp.End()
		tries[i] = tr
		trieTuples += int64(tr.entries())
	}
	scope, err := gov.Begin("wcoj.join")
	if err != nil {
		return nil, err
	}
	if workers < 2 {
		workers = 1
	}
	// When traced, enumeration runs under its own span with one binding
	// counter per variable — the per-variable leapfrog work — rendered as
	// KindVar children. The counters are atomic because parallel enumeration
	// charges them from every worker.
	var enumSpan *obs.Span
	var bindings []atomic.Int64
	if parent := gov.Span(); parent != nil {
		enumSpan = parent.Child(obs.KindEnumerate, "leapfrog enumeration")
		bindings = make([]atomic.Int64, len(order))
	}
	before := gov.Produced()
	doms := alignTries(order, tries)
	var rows []relation.Tuple
	if workers == 1 {
		rows, err = enumerate(order, tries, doms, scope, bindings)
	} else {
		rows, err = enumerateParallel(order, tries, doms, scope, workers, bindings)
	}
	if enumSpan != nil {
		enumSpan.AddTuples(gov.Produced() - before)
		for v, name := range order {
			vs := enumSpan.Child(obs.KindVar, "var "+name)
			vs.Note("%d bindings examined", bindings[v].Load())
			vs.End()
		}
		if err != nil {
			enumSpan.Note("failed: %v", err)
		}
		enumSpan.End()
	}
	if err != nil {
		return nil, err
	}
	schema, err := relation.NewSchema(order...)
	if err != nil {
		return nil, err
	}
	out, err := relation.NewFromDistinctRows(schema, rows)
	if err != nil {
		return nil, err
	}
	return &Result{Output: out, TrieTuples: trieTuples, TriesBuilt: built, Vars: order, Workers: workers}, nil
}

// checkOrder validates that order is a permutation of the scheme's
// attributes.
func checkOrder(db *relation.Database, order []string) error {
	attrs := db.Attrs()
	if len(order) != attrs.Len() {
		return fmt.Errorf("wcoj: order has %d variables, scheme has %d attributes", len(order), attrs.Len())
	}
	seen := make(map[string]bool, len(order))
	for _, v := range order {
		if seen[v] {
			return fmt.Errorf("wcoj: variable %q repeats in the order", v)
		}
		seen[v] = true
		if !attrs.Contains(v) {
			return fmt.Errorf("wcoj: variable %q is not a scheme attribute", v)
		}
	}
	return nil
}
