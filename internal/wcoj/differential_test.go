package wcoj_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// The differential harness for the code leapfrog. Tries are sorted code
// blocks whose dictionaries differ relation by relation, so every case
// mixes Int and String values and gives each relation private values that
// its join partners lack, below, between and above the shared ones: a seek
// target is then routinely absent from the sought relation's dictionary.
// The oracle is the pairwise fold relation.Database.Join().

var diffWorkers = []int{1, 2, 4}

type leapCase struct {
	name string
	db   *relation.Database
}

// mixValues rewrites an integer database so its columns are mixed-kind and
// its dictionaries only partly overlap. A shared value x becomes a string
// when x%3 == 0 and the integer 10x otherwise (equal across relations, so
// joins survive); about a quarter of the rows then get one column replaced
// by a value private to the relation — an integer strictly between two
// shared integers or a string strictly between two shared strings — which
// can never match a partner's value.
func mixValues(rng *rand.Rand, db *relation.Database) *relation.Database {
	shared := func(x int64) relation.Value {
		if x%3 == 0 {
			return relation.String(fmt.Sprintf("s%02d", x))
		}
		return relation.Int(10 * x)
	}
	rels := make([]*relation.Relation, db.Len())
	for i, rel := range db.Relations() {
		out := relation.New(rel.Schema())
		for _, row := range rel.Rows() {
			mixed := make(relation.Tuple, len(row))
			for c, v := range row {
				mixed[c] = shared(v.AsInt())
			}
			if len(mixed) > 0 && rng.Intn(4) == 0 {
				c, x := rng.Intn(len(mixed)), row[rng.Intn(len(row))].AsInt()
				if rng.Intn(2) == 0 {
					mixed[c] = relation.Int(10*x + 1 + int64(i))
				} else {
					mixed[c] = relation.String(fmt.Sprintf("s%02d_%d", x, i))
				}
			}
			out.MustInsert(mixed)
		}
		rels[i] = out
	}
	return relation.MustDatabase(rels...)
}

// leapCases is the shared case set: at least 120 random schemes (cyclic and
// acyclic, connected or not), hand-built duplicate-scheme and
// empty-relation cases, then the adversarial corpus.
func leapCases(t *testing.T) []leapCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1992))
	var cases []leapCase
	cyclic, acyclic := 0, 0
	for len(cases) < 120 || cyclic < 20 || acyclic < 20 {
		if len(cases) > 2000 {
			t.Fatalf("%d cyclic, %d acyclic schemes in %d draws", cyclic, acyclic, len(cases))
		}
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(4), Attrs: 4 + rng.Intn(3), MaxArity: 3, Connected: rng.Intn(4) != 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 4+rng.Intn(20), 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		if h.Acyclic() {
			acyclic++
		} else {
			cyclic++
		}
		cases = append(cases, leapCase{fmt.Sprintf("random %d %s", len(cases), h), mixValues(rng, db)})
	}

	tri, err := workload.TriangleSpec{Nodes: 12, Edges: 40}.TriangleDatabase(rng)
	if err != nil {
		t.Fatal(err)
	}
	tri = mixValues(rng, tri)
	// The same scheme twice with different rows: the two tries intersect
	// tuple-wise at every level.
	twin := relation.New(tri.Relation(0).Schema())
	for i, row := range tri.Relation(0).Rows() {
		if i%3 != 0 {
			twin.MustInsert(row)
		}
	}
	twin.MustInsert(relation.Tuple{relation.Int(-5), relation.String("zz")})
	cases = append(cases,
		leapCase{"duplicate schemes", relation.MustDatabase(tri.Relation(0), twin, tri.Relation(1), tri.Relation(2))},
		leapCase{"empty relation", relation.MustDatabase(tri.Relation(0), relation.New(tri.Relation(1).Schema()), tri.Relation(2))},
		leapCase{"all empty", relation.MustDatabase(relation.New(tri.Relation(0).Schema()), relation.New(tri.Relation(1).Schema()))},
	)

	corpus, err := workload.AdversarialCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range corpus {
		db, err := a.Database()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, leapCase{a.Name, db}, leapCase{a.Name + " mixed", mixValues(rng, db)})
	}
	return cases
}

// coldCopy returns db over cloned relations: no block, no trie.
func coldCopy(db *relation.Database) *relation.Database {
	rels := make([]*relation.Relation, db.Len())
	for i, r := range db.Relations() {
		rels[i] = r.Clone()
	}
	return relation.MustDatabase(rels...)
}

// sameRows reports whether two relations hold the same rows in the same
// order.
func sameRows(a, b *relation.Relation) bool {
	return slices.Equal(a.Schema().Attrs(), b.Schema().Attrs()) &&
		slices.EqualFunc(a.Rows(), b.Rows(), func(x, y relation.Tuple) bool { return x.Compare(y) == 0 })
}

// TestCodeLeapfrogMatchesReference: on every case, at every worker count,
// cold and warm, the result is ⋈D with the sequential row order, the charge
// is Σ|Rᵢ| + |output|, and the reuse accounting says what happened.
func TestCodeLeapfrogMatchesReference(t *testing.T) {
	for _, c := range leapCases(t) {
		want := c.db.Join()
		order := wcoj.VariableOrder(hypergraph.OfScheme(c.db))
		produced := int64(c.db.TotalTuples() + want.Len())
		var first *relation.Relation
		for _, workers := range diffWorkers {
			db := coldCopy(c.db)
			for pass, wantBuilt := range []int{db.Len(), 0} {
				gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
				res, err := wcoj.JoinGoverned(db, order, gov, workers)
				if err != nil {
					t.Fatalf("%s workers=%d pass %d: %v", c.name, workers, pass, err)
				}
				if !res.Output.Equal(want) {
					t.Fatalf("%s workers=%d pass %d: %d tuples, reference has %d", c.name, workers, pass, res.Output.Len(), want.Len())
				}
				if first == nil {
					first = res.Output
				} else if !sameRows(res.Output, first) {
					t.Fatalf("%s workers=%d pass %d: row order differs from the sequential cold run", c.name, workers, pass)
				}
				if gov.Produced() != produced || res.TrieTuples != int64(db.TotalTuples()) {
					t.Fatalf("%s workers=%d pass %d: charged %d (tries %d), want %d (tries %d)",
						c.name, workers, pass, gov.Produced(), res.TrieTuples, produced, db.TotalTuples())
				}
				if res.TriesBuilt != wantBuilt {
					t.Fatalf("%s workers=%d pass %d: %d tries built, want %d", c.name, workers, pass, res.TriesBuilt, wantBuilt)
				}
			}
		}
	}
}

// TestCodeLeapfrogBudgetBoundary: a budget of Produced passes and Produced−1
// aborts — on the last trie entry or the last output tuple — with the same
// LimitError cold and warm and at every worker count.
func TestCodeLeapfrogBudgetBoundary(t *testing.T) {
	for _, c := range leapCases(t) {
		order := wcoj.VariableOrder(hypergraph.OfScheme(c.db))
		produced := int64(c.db.TotalTuples() + c.db.Join().Len())
		if produced == 0 {
			continue
		}
		var first *govern.LimitError
		for _, workers := range diffWorkers {
			db := coldCopy(c.db)
			for pass := 0; pass < 2; pass++ {
				_, err := wcoj.JoinGoverned(db, order, govern.New(govern.Limits{MaxTuples: produced - 1, CheckEvery: 1}), workers)
				var le *govern.LimitError
				if !errors.Is(err, govern.ErrTupleBudget) || !errors.As(err, &le) {
					t.Fatalf("%s workers=%d pass %d: budget %d of %d did not abort: %v", c.name, workers, pass, produced-1, produced, err)
				}
				if first == nil {
					first = le
				} else if *le != *first {
					t.Fatalf("%s workers=%d pass %d: abort %+v, sequential cold abort %+v", c.name, workers, pass, *le, *first)
				}
				// The aborted cold pass may or may not have left indexes
				// behind; the exact budget must pass either way.
				gov := govern.New(govern.Limits{MaxTuples: produced, CheckEvery: 1})
				if _, err := wcoj.JoinGoverned(db, order, gov, workers); err != nil {
					t.Fatalf("%s workers=%d pass %d: exact budget %d aborted: %v", c.name, workers, pass, produced, err)
				}
				if gov.Produced() != produced {
					t.Fatalf("%s workers=%d pass %d: charged %d, want %d", c.name, workers, pass, gov.Produced(), produced)
				}
			}
		}
		if first.Produced != produced || first.Max != produced-1 {
			t.Fatalf("%s: abort %+v, want the %d-th tuple over budget %d", c.name, *first, produced, produced-1)
		}
	}
}
