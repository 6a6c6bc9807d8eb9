package program_test

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The differential harness for the program executor. The block executor
// must be indistinguishable from the tuple-map oracle (ApplyOracle) — same
// output, §2.3 cost, per-statement head schemas and sizes, governed totals
// and budget-abort boundary — at every worker count, with the range-split
// probe path forced on, over derived Algorithm 1+2 programs on random cyclic
// and acyclic schemes plus the checked-in adversarial corpus. Each Test
// below asserts one facet over the same cases. The external test package
// lets the cases come from core.DeriveFromTree, the way the engine's do.

var workerSweep = []int{1, 2, 4}

// diffCase is one program over one database over scheme h. tree is the
// expression the program was derived from; nil for the hand-built join-only
// programs.
type diffCase struct {
	name   string
	h      *hypergraph.Hypergraph
	db     *relation.Database
	p      *program.Program
	tree   *jointree.Tree
	factor int // r(a+5)
}

// leftDeepTree is the no-optimization spine over n relations.
func leftDeepTree(n int) *jointree.Tree {
	t := jointree.NewLeaf(0)
	for i := 1; i < n; i++ {
		t = jointree.NewJoin(t, jointree.NewLeaf(i))
	}
	return t
}

// foldProgram is the join-only program R0 ⋈ R1 ⋈ … in input order, for
// disconnected schemes Algorithm 2 does not cover: its joins without common
// attributes are Cartesian products.
func foldProgram(n int) *program.Program {
	p := &program.Program{Output: "R0"}
	for i := 0; i < n; i++ {
		p.Inputs = append(p.Inputs, fmt.Sprintf("R%d", i))
	}
	for i := 1; i < n; i++ {
		p.Stmts = append(p.Stmts, program.Stmt{Op: program.OpJoin, Head: "V", Arg1: p.Output, Arg2: p.Inputs[i]})
		p.Output = "V"
	}
	return p
}

// randomDerived draws a connected random scheme, a small random database
// over it, and the Algorithm 1+2 program derived from a random tree. It also
// reports whether the scheme is cyclic.
func randomDerived(t *testing.T, rng *rand.Rand, name string) (diffCase, bool) {
	t.Helper()
	h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
		Relations: 2 + rng.Intn(4),
		Attrs:     4 + rng.Intn(3),
		MaxArity:  3,
		Connected: true,
	})
	if err != nil {
		t.Fatalf("random scheme: %v", err)
	}
	db, err := workload.RandomDatabase(rng, h, 4+rng.Intn(12), 2+rng.Intn(2))
	if err != nil {
		t.Fatalf("random database: %v", err)
	}
	tree := jointree.RandomTree(rng, h.Len())
	d, err := core.DeriveFromTree(tree, h, core.RandomChoice{Rng: rng})
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	return diffCase{name: name, h: h, db: db, p: d.Program, tree: tree, factor: d.QuasiFactor}, !h.Acyclic()
}

// differentialCases is the shared case set: at least 120 random schemes of
// which at least 20 are cyclic, then the adversarial corpus.
func differentialCases(t *testing.T) []diffCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1992))
	var cases []diffCase
	cyclic := 0
	for len(cases) < 120 || cyclic < 20 {
		if len(cases) > 2000 {
			t.Fatalf("only %d cyclic schemes in %d draws", cyclic, len(cases))
		}
		c, isCyclic := randomDerived(t, rng, fmt.Sprintf("random %d", len(cases)))
		if isCyclic {
			cyclic++
		}
		cases = append(cases, c)
	}
	corpus, err := workload.AdversarialCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range corpus {
		h, err := a.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		db, err := a.Database()
		if err != nil {
			t.Fatal(err)
		}
		c := diffCase{name: a.Name, h: h, db: db, p: foldProgram(h.Len())}
		if h.Connected(h.Full()) {
			c.tree = leftDeepTree(h.Len())
			d, err := core.DeriveFromTree(c.tree, h, nil)
			if err != nil {
				t.Fatalf("%s: derive: %v", a.Name, err)
			}
			c.p, c.factor = d.Program, d.QuasiFactor
		}
		cases = append(cases, c)
	}
	return cases
}

// unlimited is a governor that only counts.
func unlimited() *govern.Governor { return govern.New(govern.Limits{MaxTuples: 1 << 40}) }

// TestBlockExecutorMatchesTupleOracle: output, cost, and every statement's
// head schema and size equal the oracle's; the output is ⋈D (Theorem 1); and
// on the block path cost(P) < r(a+5)·cost(T1) whenever ⋈D ≠ ∅ (Theorem 2).
func TestBlockExecutorMatchesTupleOracle(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	for _, c := range differentialCases(t) {
		want, err := c.p.ApplyOracle(c.db, nil)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if naive := c.db.Join(); !want.Output.Equal(naive) {
			t.Fatalf("%s: oracle output differs from ⋈D (%d vs %d tuples)", c.name, want.Output.Len(), naive.Len())
		}
		for _, w := range workerSweep {
			got, err := c.p.ApplyParallelGoverned(c.db, nil, w)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, w, err)
			}
			if !got.Output.Equal(want.Output) {
				t.Fatalf("%s, %d workers: output %d tuples, oracle %d\n%s", c.name, w, got.Output.Len(), want.Output.Len(), c.p)
			}
			if got.Cost != want.Cost || len(got.Trace) != len(want.Trace) {
				t.Fatalf("%s, %d workers: cost %d over %d statements, oracle %d over %d",
					c.name, w, got.Cost, len(got.Trace), want.Cost, len(want.Trace))
			}
			for i, step := range got.Trace {
				if step.Size != want.Trace[i].Size || !slices.Equal(step.Schema.Attrs(), want.Trace[i].Schema.Attrs()) {
					t.Fatalf("%s, %d workers: statement %d (%s) head %s with %d tuples, oracle %s with %d",
						c.name, w, i+1, step.Stmt, step.Schema, step.Size, want.Trace[i].Schema, want.Trace[i].Size)
				}
			}
			if c.tree != nil && !got.Output.IsEmpty() {
				if bound := c.factor * c.tree.Cost(c.db); got.Cost >= bound {
					t.Errorf("%s, %d workers: cost(P(D)) = %d ≥ r(a+5)·cost(T1(D)) = %d", c.name, w, got.Cost, bound)
				}
			}
		}
	}
}

// TestApplyParallelGovernedChargesSequentialTotals: the governor is charged
// the oracle's total at every worker count.
func TestApplyParallelGovernedChargesSequentialTotals(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	for _, c := range differentialCases(t) {
		oracleG := unlimited()
		if _, err := c.p.ApplyOracle(c.db, oracleG); err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		for _, w := range workerSweep {
			g := unlimited()
			if _, err := c.p.ApplyParallelGoverned(c.db, g, w); err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, w, err)
			}
			if g.Produced() != oracleG.Produced() {
				t.Fatalf("%s, %d workers: charged %d, oracle %d", c.name, w, g.Produced(), oracleG.Produced())
			}
		}
	}
}

// TestApplyParallelGovernedBudgetAborts pins the abort boundary: a budget of
// exactly the charged total passes the oracle and every worker count; one
// tuple less aborts them all with govern.ErrTupleBudget and no partial
// Result, inside the statement the oracle aborts in — statements run in
// textual order, so no later statement can report the abort.
func TestApplyParallelGovernedBudgetAborts(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	tried := 0
	for _, c := range differentialCases(t) {
		probe := unlimited()
		if _, err := c.p.ApplyOracle(c.db, probe); err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		total := probe.Produced()
		if total < 2 {
			continue // a budget of 0 means unlimited
		}
		tried++
		runs := map[string]func(g *govern.Governor) (*program.Result, error){
			"oracle": func(g *govern.Governor) (*program.Result, error) { return c.p.ApplyOracle(c.db, g) },
		}
		for _, w := range workerSweep {
			runs[fmt.Sprintf("%d workers", w)] = func(g *govern.Governor) (*program.Result, error) {
				return c.p.ApplyParallelGoverned(c.db, g, w)
			}
		}
		_, oracleErr := runs["oracle"](govern.New(govern.Limits{MaxTuples: total - 1, CheckEvery: 1}))
		stmt := abortedStmt.FindString(fmt.Sprint(oracleErr))
		for who, run := range runs {
			if _, err := run(govern.New(govern.Limits{MaxTuples: total, CheckEvery: 1})); err != nil {
				t.Fatalf("%s, %s: budget == total must pass, got %v", c.name, who, err)
			}
			res, err := run(govern.New(govern.Limits{MaxTuples: total - 1, CheckEvery: 1}))
			if !errors.Is(err, govern.ErrTupleBudget) {
				t.Fatalf("%s, %s: budget == total-1 must abort with ErrTupleBudget, got %v", c.name, who, err)
			}
			if got := abortedStmt.FindString(err.Error()); stmt == "" || got != stmt {
				t.Fatalf("%s, %s: aborted in %q, oracle in %q", c.name, who, got, stmt)
			}
			if res != nil {
				t.Fatalf("%s, %s: abort leaked a partial Result", c.name, who)
			}
		}
	}
	if tried < 100 {
		t.Fatalf("only %d cases charged enough to test the boundary", tried)
	}
}

// abortedStmt matches the statement an executor error names.
var abortedStmt = regexp.MustCompile(`^program: statement \d+ \(`)

// TestApplyParallelMatchesApplyOnRandomDerivedPrograms: more workers change
// nothing at all — the output rows come back in the sequential run's order.
func TestApplyParallelMatchesApplyOnRandomDerivedPrograms(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	for _, c := range differentialCases(t) {
		want, err := c.p.Apply(c.db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range workerSweep[1:] {
			got, err := c.p.ApplyParallelGoverned(c.db, nil, w)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, w, err)
			}
			rows, wantRows := got.Output.Rows(), want.Output.Rows()
			if len(rows) != len(wantRows) {
				t.Fatalf("%s, %d workers: %d rows, sequential %d", c.name, w, len(rows), len(wantRows))
			}
			for i := range rows {
				if rows[i].Compare(wantRows[i]) != 0 {
					t.Fatalf("%s, %d workers: row %d is %v, sequential %v", c.name, w, i, rows[i], wantRows[i])
				}
			}
		}
	}
}

// TestApplyParallelRenamesDestructiveAssignment exercises destructive
// assignment directly: a program that reassigns a variable after another
// statement read it (write-after-read) and reassigns it again
// (write-after-write) must still match the oracle at every worker count.
func TestApplyParallelRenamesDestructiveAssignment(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	x := relation.New(relation.SchemaOfRunes("AB"))
	y := relation.New(relation.SchemaOfRunes("BC"))
	for a := int64(0); a < 4; a++ {
		for b := int64(0); b < 3; b++ {
			x.MustInsert(relation.Ints(a, b))
			y.MustInsert(relation.Ints(b, (a+b)%3))
		}
	}
	db, err := relation.NewDatabase(x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := &program.Program{
		Inputs: []string{"X", "Y"},
		Stmts: []program.Stmt{
			{Op: program.OpJoin, Head: "T", Arg1: "X", Arg2: "Y"},                           // T₁ = X ⋈ Y
			{Op: program.OpProject, Head: "U", Arg1: "T", Proj: relation.AttrSet{"A", "B"}}, // reads T₁
			{Op: program.OpProject, Head: "T", Arg1: "T", Proj: relation.AttrSet{"B", "C"}}, // T₂ reads T₁ (WAR vs stmt 2, WAW vs stmt 1)
			{Op: program.OpJoin, Head: "W", Arg1: "U", Arg2: "T"},                           // must see T₂, not T₁
			{Op: program.OpSemijoin, Head: "W", Arg1: "W", Arg2: "X"},                       // head-aliasing semijoin rebind
		},
		Output: "W",
	}
	want, err := p.ApplyOracle(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 4, 8} {
		got, err := p.ApplyParallelGoverned(db, nil, w)
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		if !got.Output.Equal(want.Output) || got.Cost != want.Cost {
			t.Fatalf("%d workers: renamed execution diverged (output %d vs %d tuples, cost %d vs %d)",
				w, got.Output.Len(), want.Output.Len(), got.Cost, want.Cost)
		}
	}
}

// TestApplyParallelEmptyProgram covers the zero-statement path with a pool
// asked for: the output is the input itself and no worker is spun up.
func TestApplyParallelEmptyProgram(t *testing.T) {
	r := relation.New(relation.SchemaOfRunes("AB"))
	r.MustInsert(relation.Ints(1, 2))
	db, err := relation.NewDatabase(r)
	if err != nil {
		t.Fatal(err)
	}
	p := &program.Program{Inputs: []string{"R"}, Output: "R"}
	res, err := p.ApplyParallelGoverned(db, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != r || res.Cost != r.Len() {
		t.Fatalf("empty program: output %d tuples cost %d, want the input back", res.Output.Len(), res.Cost)
	}
}

// TestApplyParallelConcurrentCallers runs many parallel executions of one
// shared Program value concurrently — the executor must not share mutable
// state across calls (the race detector is the assertion here).
func TestApplyParallelConcurrentCallers(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	c, _ := randomDerived(t, rand.New(rand.NewSource(1995)), "shared")
	want, err := c.p.Apply(c.db)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.p.ApplyParallelGoverned(c.db, nil, 4)
			if err == nil && !res.Output.Equal(want.Output) {
				err = errors.New("output differs from sequential execution")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}
