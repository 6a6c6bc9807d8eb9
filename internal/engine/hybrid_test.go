package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/optimizer"
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

		// Charge parity: the hybrid report must match the selected plan run
		// through the static machinery, tuple for tuple.
		cdb, ch, err := canonicalize(db, hypergraph.OfScheme(db))
		if err != nil {
			t.Fatal(err)
		}
		switch plan.Hybrid.Route {
		case optimizer.RouteWCOJ:
			if want := int64(db.TotalTuples()) + int64(rep.Result.Len()); rep.Cost != want {
				t.Fatalf("trial %d: wcoj-route cost %d, want inputs+output %d", trial, rep.Cost, want)
			}
			if rep.Produced != rep.Cost {
				t.Fatalf("trial %d: wcoj-route Produced %d != Cost %d", trial, rep.Produced, rep.Cost)
			}
		case optimizer.RouteBinary:
			if plan.Hybrid.Outer != nil {
				gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
				out, cost, err := plan.Hybrid.Outer.EvalColumnarGoverned(cdb, gov)
				if err != nil {
					t.Fatalf("trial %d: direct columnar eval of the hybrid tree: %v", trial, err)
				}
				if !out.Equal(rep.Result) || int64(cost) != rep.Cost || gov.Produced() != rep.Produced {
					t.Fatalf("trial %d: binary route diverges from its own tree via static machinery: cost %d vs %d, produced %d vs %d",
						trial, rep.Cost, cost, rep.Produced, gov.Produced())
				}
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
		case optimizer.RouteMixed:
			// Deterministic machinery: a rerun charges identically.
			rep2, err := ExecutePlan(db, plan, Options{Limits: govern.Limits{MaxTuples: 1 << 40}})
			if err != nil {
				t.Fatalf("trial %d mixed rerun: %v", trial, err)
			}
			if rep2.Cost != rep.Cost || rep2.Produced != rep.Produced {
				t.Fatalf("trial %d: mixed route not deterministic: cost %d vs %d", trial, rep.Cost, rep2.Cost)
			}
		}
		_ = ch

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

// TestHybridMixedRouteExecution pins the mixed executor against handmade
// machinery: wcoj on the triangle core, the core output joined to a pendant
// edge by the outer tree's program — results, §2.3 cost, and governor
// charges must all match the two-stage reference run.
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
	hp := &HybridPlan{
		Route:     optimizer.RouteMixed,
		Core:      core,
		CoreOrder: wcoj.VariableOrder(coreH),
		Outer:     outer,
	}
	gov := govern.New(govern.Limits{MaxTuples: 1 << 40})
	rep, err := executeHybrid(db, h, hp, Options{}, gov)
	if err != nil {
		t.Fatal(err)
	}
	rep.Produced = gov.Produced()
	if want := db.Join(); !rep.Result.Equal(want) {
		t.Fatalf("mixed route: %d tuples, reference %d", rep.Result.Len(), want.Len())
	}

	// Reference: the same two stages by hand.
	refGov := govern.New(govern.Limits{MaxTuples: 1 << 40})
	coreDb, err := db.Restrict(core.Indexes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcoj.JoinGoverned(coreDb, hp.CoreOrder, refGov, 1)
	if err != nil {
		t.Fatal(err)
	}
	outerDb, err := relation.NewDatabase(res.Output, db.Relation(3), db.Relation(4))
	if err != nil {
		t.Fatal(err)
	}
	out, outerCost, err := outer.EvalColumnarGoverned(outerDb, refGov)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rep.Result) {
		t.Fatal("reference two-stage run disagrees")
	}
	wantCost := int64(coreDb.TotalTuples()) + int64(outerCost)
	if rep.Cost != wantCost {
		t.Fatalf("mixed cost %d, want core inputs + outer eval = %d", rep.Cost, wantCost)
	}
	if rep.Produced != refGov.Produced() {
		t.Fatalf("mixed charges %d, reference machinery charged %d", rep.Produced, refGov.Produced())
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
	if plan.Hybrid.Route != optimizer.RouteBinary || plan.Hybrid.Outer == nil {
		t.Fatalf("route %s with outer tree %v, want binary with a tree (notes %q)", plan.Hybrid.Route, plan.Hybrid.Outer, plan.Notes)
	}
	rep, err := ExecutePlan(db, plan, Options{Budget: 1})
	if err != nil {
		t.Fatalf("executing the cached plan searched: %v", err)
	}
	if !rep.Result.Equal(db.Join()) {
		t.Fatal("wrong result")
	}
}
