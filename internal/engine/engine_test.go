package engine

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/workload"
)

func example3DB(t *testing.T, q int64) *relation.Database {
	t.Helper()
	spec, err := workload.Example3(q)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestJoinAllStrategiesAgree(t *testing.T) {
	db := example3DB(t, 6)
	want := db.Join()
	for _, s := range []Strategy{
		StrategyAuto, StrategyProgram, StrategyExpression, StrategyReduceThenJoin, StrategyWCOJ,
	} {
		rep, err := Join(db, Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !rep.Result.Equal(want) {
			t.Errorf("%s: wrong result (%d tuples)", s, rep.Result.Len())
		}
		if rep.Cost <= 0 {
			t.Errorf("%s: cost not accounted", s)
		}
		if rep.Explain() == "" {
			t.Errorf("%s: empty explain", s)
		}
	}
}

func TestAutoPicksAcyclicOnAcyclicScheme(t *testing.T) {
	db, err := workload.DanglingChainDatabase(4, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Join(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyAcyclic {
		t.Errorf("auto picked %s on an acyclic scheme", rep.Strategy)
	}
	if !rep.Result.Equal(db.Join()) {
		t.Error("wrong result")
	}
}

func TestAutoPicksProgramOnCyclicScheme(t *testing.T) {
	db := example3DB(t, 6)
	rep, err := Join(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != StrategyProgram {
		t.Errorf("auto picked %s on a cyclic scheme", rep.Strategy)
	}
}

func TestAcyclicStrategyRejectsCyclic(t *testing.T) {
	db := example3DB(t, 6)
	if _, err := Join(db, Options{Strategy: StrategyAcyclic}); err == nil {
		t.Error("acyclic strategy accepted a cyclic scheme")
	}
}

// TestProgramBeatsExpressionOnExample3: the engine's headline — at q = 10
// the program route costs less than the CPF-expression route.
func TestProgramBeatsExpressionOnExample3(t *testing.T) {
	db := example3DB(t, 10)
	prog, err := Join(db, Options{Strategy: StrategyProgram})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := Join(db, Options{Strategy: StrategyExpression})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Cost >= expr.Cost {
		t.Errorf("program (%d) should beat CPF expression (%d) at q=10", prog.Cost, expr.Cost)
	}
}

// roundHeads returns the head of every semijoin in reduce-then-join's
// pairwise round, read from rep's steps, beside the size of the relation
// that semijoin filtered.
func roundHeads(t *testing.T, db *relation.Database, rep *Report) (heads, inputs []int) {
	t.Helper()
	plan, err := PlanFor(db, Options{Strategy: StrategyReduceThenJoin})
	if err != nil {
		t.Fatal(err)
	}
	cdb, _, err := canonicalize(db, hypergraph.OfScheme(db))
	if err != nil {
		t.Fatal(err)
	}
	size := make(map[string]int)
	for i, name := range plan.Program.Inputs {
		size[name] = cdb.Relation(i).Len()
	}
	for i, st := range plan.Program.Stmts {
		if st.Op != program.OpSemijoin {
			break
		}
		if rep.Steps[i].Stmt != st.String() {
			t.Fatalf("step %d is %q, plan statement %q", i, rep.Steps[i].Stmt, st)
		}
		heads, inputs = append(heads, rep.Steps[i].Tuples), append(inputs, size[st.Arg1])
		size[st.Head] = rep.Steps[i].Tuples
	}
	if len(heads) == 0 {
		t.Fatal("reduce-then-join plan has no semijoin round")
	}
	return heads, inputs
}

// TestReduceThenJoinWastedOnExample3: pairwise reduction removes nothing on
// the pairwise-consistent family, so the strategy pays its round on top of
// plain expression evaluation: every round head equals its input, and the
// cost is the expression's plus those heads.
func TestReduceThenJoinWastedOnExample3(t *testing.T) {
	db := example3DB(t, 6)
	red, err := Join(db, Options{Strategy: StrategyReduceThenJoin})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := Join(db, Options{Strategy: StrategyExpression})
	if err != nil {
		t.Fatal(err)
	}
	heads, inputs := roundHeads(t, db, red)
	round := 0
	for i, n := range heads {
		if n != inputs[i] {
			t.Errorf("round semijoin %d kept %d of %d tuples on pairwise-consistent data", i+1, n, inputs[i])
		}
		round += n
	}
	if red.Cost != expr.Cost+int64(round) {
		t.Errorf("reduce-then-join cost %d, want expression %d + round heads %d", red.Cost, expr.Cost, round)
	}
}

// TestReduceThenJoinHelpsOnDanglingData: with dangling tuples the round
// removes some, and the joins over the reduced relations still compute ⋈D.
func TestReduceThenJoinHelpsOnDanglingData(t *testing.T) {
	db, err := workload.DanglingChainDatabase(5, 14, 40)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Join(db, Options{Strategy: StrategyReduceThenJoin})
	if err != nil {
		t.Fatal(err)
	}
	if !red.Result.Equal(db.Join()) {
		t.Fatal("wrong result")
	}
	heads, inputs := roundHeads(t, db, red)
	shrank := false
	for i := range heads {
		shrank = shrank || heads[i] < inputs[i]
	}
	if !shrank {
		t.Errorf("no round semijoin removed a tuple on dangling data: heads %v, inputs %v", heads, inputs)
	}
}

func TestJoinRandomizedAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		h, err := workload.RandomScheme(rng, workload.RandomSchemeSpec{
			Relations: 2 + rng.Intn(4), Attrs: 5, MaxArity: 3, Connected: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(12), 3)
		if err != nil {
			t.Fatal(err)
		}
		want := db.Join()
		for _, s := range []Strategy{StrategyAuto, StrategyProgram, StrategyExpression} {
			rep, err := Join(db, Options{Strategy: s})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s, err)
			}
			if !rep.Result.Equal(want) {
				t.Fatalf("trial %d %s: wrong result on %s", trial, s, h)
			}
		}
	}
}

func TestJoinEmptyDatabase(t *testing.T) {
	if _, err := Join(nil, Options{}); err == nil {
		t.Error("nil database accepted")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyAuto:           "auto",
		StrategyProgram:        "program",
		StrategyExpression:     "cpf-expression",
		StrategyReduceThenJoin: "reduce-then-join",
		StrategyAcyclic:        "acyclic",
		StrategyWCOJ:           "wcoj",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestExplainMentionsPlan(t *testing.T) {
	db := example3DB(t, 6)
	rep, err := Join(db, Options{Strategy: StrategyProgram})
	if err != nil {
		t.Fatal(err)
	}
	exp := rep.Explain()
	for _, want := range []string{"strategy: program", "source expression:", "R(", "Theorem 2"} {
		if !strings.Contains(exp, want) {
			t.Errorf("Explain missing %q:\n%s", want, exp)
		}
	}
}

// TestJoinTinyBudgetFails: on Example3(q=40) the optimizer's search
// crosses the catalog's tuple budget, and PlanFor under an explicit
// program or cpf-expression strategy surfaces that as a
// govern.ErrTupleBudget abort, within a bounded allocation, rather than
// returning a plan or a generic failure.
func TestJoinTinyBudgetFails(t *testing.T) {
	db := example3DB(t, 40)
	for _, s := range []Strategy{StrategyProgram, StrategyExpression} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := PlanFor(db, Options{Strategy: s})
		runtime.ReadMemStats(&after)
		var lim *govern.LimitError
		if !errors.Is(err, govern.ErrTupleBudget) || !errors.As(err, &lim) {
			t.Fatalf("%s: err = %v, want a govern.ErrTupleBudget search abort", s, err)
		}
		if !strings.Contains(err.Error(), "search") {
			t.Errorf("%s: %q does not name the search", s, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Errorf("%s: the aborted search allocated %d MiB, want < 64", s, alloc>>20)
		}
	}
}

func TestJoinDisconnectedAcyclicScheme(t *testing.T) {
	// Two disjoint binary relations: the scheme is acyclic but
	// disconnected; auto takes the acyclic route, whose monotone tree
	// crosses the components.
	r1 := relation.New(relation.SchemaOfRunes("AB"))
	r1.MustInsert(relation.Ints(1, 2))
	r1.MustInsert(relation.Ints(3, 4))
	r2 := relation.New(relation.SchemaOfRunes("CD"))
	r2.MustInsert(relation.Ints(5, 6))
	db := relation.MustDatabase(r1, r2)
	rep, err := Join(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(db.Join()) {
		t.Error("disconnected acyclic join wrong")
	}
	if rep.Result.Len() != 2 {
		t.Errorf("product size = %d, want 2", rep.Result.Len())
	}
	// The program strategy falls back gracefully on disconnected schemes.
	prog, err := Join(db, Options{Strategy: StrategyProgram})
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Result.Equal(db.Join()) {
		t.Error("program fallback wrong on disconnected scheme")
	}
}
