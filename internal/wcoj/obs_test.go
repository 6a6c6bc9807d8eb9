package wcoj_test

import (
	"math/rand"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// Tests for the enumerator's tracing: trie and enumeration spans, the
// per-variable binding counters, and their safety under parallel
// enumeration (run with -race: the binding counters and the enumeration
// span are shared across workers).

func TestTracedEnumerationSpansSequentialAndParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h, err := workload.CliqueScheme(4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.RandomDatabase(rng, h, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	order := wcoj.VariableOrder(h)

	type shape struct {
		tries    int
		built    int
		resident int
		enum     int64
		vars     int
		bindings []int64
	}
	inspect := func(root *obs.Span) shape {
		var sh shape
		root.Walk(func(sp *obs.Span, _ int) {
			switch sp.Kind() {
			case obs.KindTrie:
				sh.tries++
				for _, note := range sp.Notes() {
					switch note {
					case "built":
						sh.built++
					case "resident":
						sh.resident++
					}
				}
			case obs.KindEnumerate:
				sh.enum = sp.Tuples()
			case obs.KindVar:
				sh.vars++
			}
		})
		return sh
	}

	var seqOut *wcoj.Result
	for _, workers := range []int{1, 2, 8} {
		tr := obs.NewTrace("wcoj")
		gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
		gov.SetSpan(tr.Root)
		res, err := wcoj.JoinGoverned(db, order, gov, workers)
		tr.Root.End()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := tr.Root.TupleTotal(); got != gov.Produced() {
			t.Fatalf("workers=%d: spans charge %d tuples, governor charged %d\n%s",
				workers, got, gov.Produced(), tr.Format())
		}
		if err := tr.Root.CheckNested(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sh := inspect(tr.Root)
		if sh.tries != db.Len() {
			t.Errorf("workers=%d: %d trie spans, want %d", workers, sh.tries, db.Len())
		}
		// The first run builds every index; the later ones find them on the
		// relations. Either way each trie span says which.
		if sh.built != res.TriesBuilt || sh.built+sh.resident != db.Len() || (workers == 1) != (sh.built == db.Len()) {
			t.Errorf("workers=%d: trie spans note %d built, %d resident; result says %d built of %d",
				workers, sh.built, sh.resident, res.TriesBuilt, db.Len())
		}
		if sh.vars != len(order) {
			t.Errorf("workers=%d: %d var spans, want %d", workers, sh.vars, len(order))
		}
		if sh.enum != int64(res.Output.Len()) {
			t.Errorf("workers=%d: enumerate span charged %d, output has %d",
				workers, sh.enum, res.Output.Len())
		}
		if workers == 1 {
			seqOut = res
		} else if !res.Output.Equal(seqOut.Output) {
			t.Errorf("workers=%d: traced result differs from sequential", workers)
		}
	}
}

// TestUntracedRunBuildsNoSpans pins the zero-overhead path: with no span on
// the governor, enumeration allocates no binding counters and no spans.
func TestUntracedRunBuildsNoSpans(t *testing.T) {
	db := triangleDB(t)
	order := wcoj.VariableOrder(hypergraph.OfScheme(db))
	gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
	res, err := wcoj.JoinGoverned(db, order, gov, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 1 {
		t.Fatalf("triangle count = %d, want 1", res.Output.Len())
	}
	if gov.Span() != nil {
		t.Fatal("governor grew a span out of nowhere")
	}
}
