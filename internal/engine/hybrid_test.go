package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// TestHybridDifferentialRandomSchemes is the chooser's correctness anchor:
// over 120 random schemes (≥20 cyclic) the hybrid route must compute
// exactly the same relation as the program, wcoj, and cpf-expression routes, its
// governor charges must equal what the selected plan charges through the
// static machinery, and a budget one below its own charge must abort with
// the typed error (the abort boundary matches the charge exactly).
func TestHybridDifferentialRandomSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(1992))
	cyclic := 0
	routes := map[string]int{}
	for trial := 0; trial < 120; trial++ {
		var h *hypergraph.Hypergraph
		var err error
		if trial%3 == 0 {
			h, err = workload.CliqueScheme(3 + rng.Intn(2))
		} else {
			h, err = workload.RandomScheme(rng, workload.RandomSchemeSpec{
				Relations: 2 + rng.Intn(4), Attrs: 5, MaxArity: 3, Connected: rng.Intn(2) == 0,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !h.Acyclic() {
			cyclic++
		}
		db, err := workload.RandomDatabase(rng, h, 1+rng.Intn(14), 3)
		if err != nil {
			t.Fatal(err)
		}
		want := db.Join()

		plan, err := PlanFor(db, Options{Strategy: StrategyHybrid})
		if err != nil {
			t.Fatalf("trial %d plan: %v on %s", trial, err, h)
		}
		if plan.Hybrid == nil {
			t.Fatalf("trial %d: hybrid plan missing on %s", trial, h)
		}
		routes[plan.Hybrid.Route]++
		rep, err := ExecutePlan(db, plan, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
		if err != nil {
			t.Fatalf("trial %d hybrid: %v on %s", trial, err, h)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("trial %d: hybrid (%s route) disagrees with the reference fold on %s",
				trial, plan.Hybrid.Route, h)
		}

		// Every other strategy agrees.
		for _, s := range []Strategy{StrategyProgram, StrategyWCOJ, StrategyExpression} {
			srep, err := Join(db, Options{Strategy: s})
			if err != nil {
				t.Fatalf("trial %d %s: %v on %s", trial, s, err, h)
			}
			if !srep.Result.Equal(rep.Result) {
				t.Fatalf("trial %d: %s disagrees with hybrid on %s", trial, s, h)
			}
		}

		// Charge parity: every route is a program, and its charge is each
		// binary head once plus, for a multiway statement, its operands'
		// tries and its output — what the static plans charge.
		cdb, _, err := canonicalize(db, hypergraph.OfScheme(db))
		if err != nil {
			t.Fatal(err)
		}
		if want := programCharge(t, plan.Program, cdb, rep); rep.Produced != want {
			t.Fatalf("trial %d: %s route charged %d, its statements account for %d\n%s",
				trial, plan.Hybrid.Route, rep.Produced, want, plan.Program)
		}
		switch plan.Hybrid.Route {
		case optimizer.RouteWCOJ:
			if want := int64(db.TotalTuples()) + int64(rep.Result.Len()); rep.Cost != want || rep.Produced != rep.Cost {
				t.Fatalf("trial %d: wcoj-route cost %d produced %d, want inputs+output %d", trial, rep.Cost, rep.Produced, want)
			}
		case optimizer.RouteAcyclic:
			// Compare via the plan path: both canonicalize the edge order,
			// which the reducer pipeline's pass order (and thus cost) follows.
			aplan, err := PlanFor(db, Options{Strategy: StrategyAcyclic})
			if err != nil {
				t.Fatalf("trial %d acyclic plan: %v", trial, err)
			}
			arep, err := ExecutePlan(db, aplan, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
			if err != nil {
				t.Fatalf("trial %d acyclic: %v", trial, err)
			}
			if arep.Cost != rep.Cost || arep.Produced != rep.Produced {
				t.Fatalf("trial %d: acyclic route charges drifted: cost %d vs %d, produced %d vs %d",
					trial, rep.Cost, arep.Cost, rep.Produced, arep.Produced)
			}
		}

		// Abort boundary: one tuple under the hybrid's own charge must abort
		// with the typed budget error; exactly its charge must succeed.
		if trial%10 == 0 && rep.Produced > 1 {
			if _, err := ExecutePlan(db, plan, Options{Limits: govern.Limits{MaxTuples: rep.Produced}}); err != nil {
				t.Fatalf("trial %d: budget == Produced (%d) aborted: %v", trial, rep.Produced, err)
			}
			_, err := ExecutePlan(db, plan, Options{Limits: govern.Limits{MaxTuples: rep.Produced - 1}})
			if !errors.Is(err, govern.ErrTupleBudget) {
				t.Fatalf("trial %d: budget %d (one under charge) returned %v, want ErrTupleBudget",
					trial, rep.Produced-1, err)
			}
		}
	}
	if cyclic < 20 {
		t.Fatalf("only %d/120 trials drew cyclic schemes; the differential needs both kinds", cyclic)
	}
	if routes[optimizer.RouteBinary] == 0 || routes[optimizer.RouteWCOJ]+routes[optimizer.RouteMixed] == 0 {
		t.Fatalf("route mix degenerate: %v (both binary and wcoj/mixed must be exercised)", routes)
	}
}

// programCharge is what a program's run must charge the governor: each
// binary or project head once, and for a multiway statement its operands'
// tuples (the tries) plus its output. rep supplies the executed heads.
func programCharge(t *testing.T, p *program.Program, db *relation.Database, rep *Report) int64 {
	t.Helper()
	if len(rep.Steps) != p.Len() {
		t.Fatalf("%d steps reported for %d statements", len(rep.Steps), p.Len())
	}
	var total int64
	for i, s := range p.Stmts {
		total += int64(rep.Steps[i].Tuples)
		for _, arg := range s.Args {
			total += int64(db.Relation(slices.Index(p.Inputs, arg)).Len())
		}
	}
	return total
}

// TestHybridMixedRouteExecution pins the mixed route's program — a multiway
// statement on the triangle core, its head joined to the pendant edges by
// the outer tree's joins — against the two-stage machinery it replaced:
// results, §2.3 cost, and governor charges must all match.
func TestHybridMixedRouteExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := hypergraph.Must([]relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("B", "C"),
		relation.NewAttrSet("A", "C"),
		relation.NewAttrSet("C", "D"),
		relation.NewAttrSet("D", "E"),
	})
	db, err := workload.RandomDatabase(rng, h, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	core := h.Core()
	if core.Count() != 3 || core == h.Full() {
		t.Fatalf("core = %s, want the triangle edges", core)
	}
	coreH, err := coreHypergraph(h, core)
	if err != nil {
		t.Fatal(err)
	}
	outer := jointree.NewJoin(jointree.NewJoin(jointree.NewLeaf(0), jointree.NewLeaf(1)), jointree.NewLeaf(2))
	p, err := leapfrogProgram(h, core, outer)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 || p.Stmts[0].Op != program.OpMultiway || p.Stmts[1].Arg1 != p.Stmts[0].Head {
		t.Fatalf("mixed program is not a multiway statement feeding the outer joins:\n%s", p)
	}
	gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
	res, err := p.ApplyGoverned(db, gov)
	if err != nil {
		t.Fatal(err)
	}
	if want := db.Join(); !res.Output.Equal(want) {
		t.Fatalf("mixed route: %d tuples, reference %d", res.Output.Len(), want.Len())
	}

	// Reference: the core by wcoj.JoinGoverned, then the outer tree over its
	// output and the pendant edges.
	refGov := govern.New(govern.Limits{MaxTuples: 1 << 40})
	coreDb, err := db.Restrict(core.Indexes())
	if err != nil {
		t.Fatal(err)
	}
	wres, err := wcoj.JoinGoverned(coreDb, wcoj.VariableOrder(coreH), refGov, 1)
	if err != nil {
		t.Fatal(err)
	}
	outerDb, err := relation.NewDatabase(wres.Output, db.Relation(3), db.Relation(4))
	if err != nil {
		t.Fatal(err)
	}
	out, outerCost, err := outer.EvalColumnarGoverned(outerDb, refGov)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(res.Output) {
		t.Fatal("reference two-stage run disagrees")
	}
	if want := coreDb.TotalTuples() + outerCost; res.Cost != want {
		t.Fatalf("mixed cost %d, want core inputs + outer eval = %d", res.Cost, want)
	}
	if gov.Produced() != refGov.Produced() {
		t.Fatalf("mixed charges %d, reference machinery charged %d", gov.Produced(), refGov.Produced())
	}
}

// TestHybridPlanRoundTrip: the hybrid plan is cache-reusable across edge
// orders of the same scheme, like every other plan.
func TestHybridPlanRoundTrip(t *testing.T) {
	db := example3DB(t, 6)
	plan, err := PlanFor(db, Options{Strategy: StrategyHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyHybrid || plan.Hybrid == nil {
		t.Fatalf("plan = %+v, want hybrid with a route", plan)
	}
	want := db.Join()
	rep, err := ExecutePlan(db, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(want) {
		t.Error("plan execution wrong")
	}
	perm := make([]int, db.Len())
	for i := range perm {
		perm[i] = db.Len() - 1 - i
	}
	rdb, err := db.Restrict(perm)
	if err != nil {
		t.Fatal(err)
	}
	rrep, err := ExecutePlan(rdb, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Result.Equal(want) {
		t.Error("plan execution wrong on reordered edges")
	}
}

// TestHybridSkewRoutesToWCOJ: Zipf-skewed cyclic data must push the chooser
// off the binary route — the independence assumption's blind spot is
// exactly what the sketch histograms exist to catch.
func TestHybridSkewRoutesToWCOJ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, err := workload.CliqueScheme(3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.ZipfDatabase(rng, h, 400, 40, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFor(db, Options{Strategy: StrategyHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if r := plan.Hybrid.Route; r != optimizer.RouteWCOJ && r != optimizer.RouteMixed {
		t.Fatalf("route = %q on skewed triangle, want wcoj or mixed", r)
	}
	rep, err := ExecutePlan(db, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := db.Join(); !rep.Result.Equal(want) {
		t.Fatal("wrong result on skewed triangle")
	}
}

// TestHybridWideBinaryPlanCarriesTree: past optimizer.MaxExactRelations
// edges the chooser's DP is unavailable, and low skew routes binary with no
// tree of its own. The planner must search that tree itself, so the cached
// plan carries it and executing the plan searches nothing — an optimizer
// budget of one tuple, which fails any search, does not touch execution.
func TestHybridWideBinaryPlanCarriesTree(t *testing.T) {
	const n = optimizer.MaxExactRelations + 1
	edges := make([]relation.AttrSet, n)
	for i := range edges {
		edges[i] = relation.NewAttrSet(fmt.Sprintf("A%02d", i), fmt.Sprintf("A%02d", (i+1)%n))
	}
	h := hypergraph.Must(edges)
	db, err := workload.RandomDatabase(rand.New(rand.NewSource(5)), h, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFor(db, Options{Strategy: StrategyHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if _, joins, _ := plan.Program.OpCounts(); plan.Hybrid.Route != optimizer.RouteBinary || joins != n-1 || plan.Program.Len() != n-1 {
		t.Fatalf("route %s with program\n%s\nwant binary with a tree's %d joins (notes %q)", plan.Hybrid.Route, plan.Program, n-1, plan.Notes)
	}
	rep, err := ExecutePlan(db, plan, Options{Budget: 1})
	if err != nil {
		t.Fatalf("executing the cached plan searched: %v", err)
	}
	if !rep.Result.Equal(db.Join()) {
		t.Fatal("wrong result")
	}
}
