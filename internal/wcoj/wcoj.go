// Package wcoj implements a worst-case-optimal join backend: a triejoin in
// the manner of Leapfrog Triejoin (Veldhuizen, ICDT 2013) and Generic Join
// (Ngo et al. — see PAPERS.md) computing ⋈D attribute-by-attribute instead
// of relation-by-relation.
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
//   - trie indexes (trie.go). A trie is the relation's resident columnar
//     block indexed along the variable order in CSR form (relation.Trie):
//     per level the uint32 dictionary codes of the distinct prefixes and,
//     above the last level, each node's child range, so a bound node's
//     children are read from two offsets. Nothing is decoded to build or
//     read it, and it is built once per relation snapshot — memoized on the
//     relation's block, so every later query reuses it until ingest
//     replaces the relation (columns.go);
//   - dictionary alignment (alignTries in trie.go): dictionaries are per
//     relation, so for each variable the dictionaries of the relations
//     carrying it are merged into one sorted value list and, per trie
//     level, the level's node keys are mapped into it through a monotone
//     local-code → aligned-code table, with at level 0 a successor table
//     that makes a root probe one load — memoized in the trie level's slot
//     for as long as the same dictionaries meet again;
//   - the per-variable intersection of the relations' child ranges over
//     aligned codes — integer comparisons only: walked, merged or probed
//     by galloping from the shortest range (join.go);
//   - JoinBlocks: the full multiway join over []uint32 bindings, charging
//     every index entry (resident or not) and every output tuple against a
//     govern.Governor and polling deadlines mid-iteration (join.go), with a
//     partition-parallel variant that splits the outermost variable's
//     bindings, with their positions, across workers (parallel.go). Its
//     output is a block over the aligned domains, so nothing is decoded;
//     JoinGoverned wraps it for a database and returns it as a
//     block-backed relation.
//
// JoinBlocks is what the program executor runs for a multiway statement
// (internal/program): the engine's wcoj plan is that one statement, and a
// program may put one on a cyclic core ahead of binary joins.
package wcoj

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Result is the outcome of a governed join: the output plus the
// accounting an EXPLAIN wants.
type Result struct {
	// Block is ⋈ of the operands over the variable order's schema (one
	// column per variable, in order). Its dictionaries are the per-variable
	// domains the operands were aligned to, so it was built without decoding
	// a value.
	Block *relation.ColBlock
	// Output is Block as a relation (block-backed: its rows are decoded
	// only if read); only JoinGoverned sets it.
	Output *relation.Relation
	// TrieTuples is the number of index entries read — Σ|Rᵢ|, since each
	// trie indexes its operand without generating new tuples. It is charged
	// in full whether an index was resident or built.
	TrieTuples int64
	// TriesBuilt is how many of the operands' indexes this call had to build
	// because no earlier query had left them resident on the block;
	// the rest were reused.
	TriesBuilt int
	// Tries is the number of operands, one trie each.
	Tries int
	// Vars is the global variable order the join ran with.
	Vars []string
	// Workers is the number of goroutines enumeration used (1 = sequential).
	Workers int
}

// Notes renders the join's accounting for a report.
func (r *Result) Notes() []string {
	notes := []string{
		fmt.Sprintf("tries index the %d input tuples; no pairwise intermediate is materialized (§2.3 cost = inputs + output)", r.TrieTuples),
		fmt.Sprintf("tries: %d resident, %d built", r.Tries-r.TriesBuilt, r.TriesBuilt),
	}
	if r.Workers > 1 {
		notes = append(notes, fmt.Sprintf("outermost variable's key range partitioned across %d workers", r.Workers))
	}
	return notes
}

// JoinGoverned is JoinBlocks over db's resident blocks, tracing under the
// governor's span, with the output block wrapped as Result.Output.
func JoinGoverned(db *relation.Database, order []string, gov *govern.Governor, workers int) (*Result, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("wcoj: empty database")
	}
	blocks := make([]*relation.ColBlock, db.Len())
	for i, rel := range db.Relations() {
		blocks[i] = rel.Block()
	}
	res, err := JoinBlocks(blocks, order, gov, workers, gov.Span())
	if err != nil {
		return nil, err
	}
	res.Output = res.Block.ToRelation()
	return res, nil
}

// JoinBlocks computes the natural join of the blocks along the given
// variable order, which must cover exactly their attributes, under gov (nil
// = no limits), enumerating with up to workers goroutines (values below 2
// run sequentially). Each trie charges one tuple per index entry under the
// operator "wcoj.trie" (one scope per operand) before it is fetched from
// the block or built, so charges do not depend on what earlier queries left
// resident; enumeration charges each output tuple — and counts every
// binding of every variable toward the cancellation poll, even when nothing
// is emitted —
// under "wcoj.join", one meter per enumerating goroutine. When span is non-nil,
// each trie and the enumeration get a child span under it.
func JoinBlocks(blocks []*relation.ColBlock, order []string, gov *govern.Governor, workers int, span *obs.Span) (*Result, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("wcoj: no operands")
	}
	if err := checkOrder(blocks, order); err != nil {
		return nil, err
	}
	res := &Result{Tries: len(blocks), Vars: order, Workers: max(workers, 1)}
	tries := make([]*trieIndex, len(blocks))
	for i, b := range blocks {
		var sp *obs.Span
		if span != nil {
			sp = span.Child(obs.KindTrie, "trie "+b.Schema().String())
		}
		scope, err := gov.Begin("wcoj.trie")
		if err != nil {
			sp.End()
			return nil, err
		}
		tr, err := fromBlock(b, order, scope)
		if err != nil {
			sp.Note("failed: %v", err)
			sp.End()
			return nil, err
		}
		if tr.built {
			res.TriesBuilt++
			sp.Note("built")
		} else {
			sp.Note("resident")
		}
		sp.AddTuples(int64(b.Len()))
		sp.End()
		tries[i] = tr
		res.TrieTuples += int64(b.Len())
	}
	scope, err := gov.Begin("wcoj.join")
	if err != nil {
		return nil, err
	}
	// When traced, enumeration runs under its own span with one binding
	// counter per variable — the per-variable intersection work — rendered
	// as KindVar children.
	var enumSpan *obs.Span
	var bindings []int64
	if span != nil {
		enumSpan = span.Child(obs.KindEnumerate, "leapfrog enumeration")
		bindings = make([]int64, len(order))
	}
	before := gov.Produced()
	doms := alignTries(order, tries)
	var out *emitter
	if res.Workers == 1 {
		out, err = enumerate(order, tries, scope, bindings)
	} else {
		out, err = enumerateParallel(order, tries, scope, res.Workers, bindings)
	}
	if enumSpan != nil {
		enumSpan.AddTuples(gov.Produced() - before)
		for v, name := range order {
			vs := enumSpan.Child(obs.KindVar, "var "+name)
			vs.Note("%d bindings examined", bindings[v])
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
	if res.Block, err = relation.NewColBlock(schema, out.n, doms, out.cols); err != nil {
		return nil, err
	}
	return res, nil
}

// checkOrder validates that order is a permutation of the operands'
// attributes.
func checkOrder(blocks []*relation.ColBlock, order []string) error {
	var attrs relation.AttrSet
	for _, b := range blocks {
		attrs = attrs.Union(b.Schema().AttrSet())
	}
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
