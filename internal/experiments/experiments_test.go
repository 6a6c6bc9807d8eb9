package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestExample3CostsTable(t *testing.T) {
	table, err := Example3Costs([]int64{6, 10}, []int64{100})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(table.Rows))
	}
	// At q=100 (k=2) the paper's shape must hold: optimal below the
	// 10^{4k+1} ceiling, cheapest CPF a full order of magnitude above the
	// optimal (the paper's constants differ slightly — its family is 2× our
	// payloads — but the Θ(q⁴) vs Θ(q⁵) separation is the claim).
	row := table.Rows[2]
	opt, err := strconv.ParseInt(row[2], 10, 64)
	if err != nil {
		t.Fatalf("optimal cell %q: %v", row[2], err)
	}
	cpf, err := strconv.ParseInt(row[4], 10, 64)
	if err != nil {
		t.Fatalf("CPF cell %q: %v", row[4], err)
	}
	if opt >= 1_000_000_000 {
		t.Errorf("q=100: optimal %d ≥ 10^{4k+1} = 10^9", opt)
	}
	if cpf <= 10*opt {
		t.Errorf("q=100: cheapest CPF %d ≤ 10 × optimal %d", cpf, opt)
	}
	// Measured rows must carry a program cost; analytic-only rows must not.
	if table.Rows[0][7] == "—" {
		t.Error("measured row lost its program cost")
	}
	if table.Rows[2][7] != "—" {
		t.Error("analytic row unexpectedly measured a program")
	}
}

func TestAlgorithm1ExampleSixteen(t *testing.T) {
	table, err := Algorithm1Example()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 16 {
		t.Fatalf("rows = %d, want 16 (Example 5)", len(table.Rows))
	}
	marked := 0
	for _, row := range table.Rows {
		if row[2] == "✓" {
			marked++
		}
	}
	if marked != 1 {
		t.Errorf("Figure 2 marked %d times, want 1", marked)
	}
}

func TestAlgorithm2ExampleGolden(t *testing.T) {
	table, err := Algorithm2Example(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 10 {
		t.Fatalf("statements = %d, want 10 (Example 6)", len(table.Rows))
	}
	if got := table.Rows[0][1]; got != "R(V) := R(ABC) ⋉ R(CDE)" {
		t.Errorf("first statement = %q", got)
	}
	if got := table.Rows[9][1]; got != "R(V) := R(V) ⋈ R(GHA)" {
		t.Errorf("last statement = %q", got)
	}
}

func TestTheorem1VerificationTable(t *testing.T) {
	table, err := Theorem1Verification(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[1] != row[2] {
			t.Errorf("trials %s != correct %s", row[1], row[2])
		}
	}
}

func TestTheorem2BoundTable(t *testing.T) {
	table, err := Theorem2Bound(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("violations = %s, want 0 (row %v)", row[len(row)-1], row)
		}
	}
}

func TestFullReducerExperimentTable(t *testing.T) {
	table, err := FullReducerExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if table.Rows[0][4] == "0" {
		t.Error("dangling chain should lose tuples")
	}
	if table.Rows[1][4] != "0" {
		t.Error("pairwise-consistent data should lose nothing")
	}
}

func TestYannakakisExperimentTable(t *testing.T) {
	table, err := YannakakisExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

func TestSearchSpaceSizesTable(t *testing.T) {
	table, err := SearchSpaceSizes()
	if err != nil {
		t.Fatal(err)
	}
	// The 4-cycle row must reproduce the known counts: 120/80/24/16.
	found := false
	for _, row := range table.Rows {
		if row[0] == "4-cycle" {
			found = true
			if row[2] != "120" || row[3] != "80" || row[4] != "24" || row[5] != "16" {
				t.Errorf("4-cycle counts = %v", row)
			}
		}
	}
	if !found {
		t.Error("4-cycle row missing")
	}
}

func TestLinearCPFProbeTable(t *testing.T) {
	table, err := LinearCPFProbe(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		// "k/n" with k == n (no bound violations observed).
		parts := strings.Split(row[2], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("probe found a bound violation: %v", row)
		}
	}
}

func TestOptimizerComparisonTable(t *testing.T) {
	table, err := OptimizerComparison(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Every ratio cell must be ≥ 1.00 (nothing beats the exact optimum).
	for _, row := range table.Rows {
		for _, cell := range row[2:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("cell %q: %v", cell, err)
			}
			if v < 0.999 {
				t.Errorf("method beat the optimal DP: %v", row)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	table.AddRow(1, "x")
	table.AddRow(22, "⋈⋈")
	table.AddNote("note %d", 7)
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, want := range []string{"T — demo", "a   bb", "22  ⋈⋈", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureTreesRender(t *testing.T) {
	out := FigureTrees()
	for _, want := range []string{"Figure 1", "Figure 2", "{ABC, EFG}", "{ABC, CDE, EFG}"} {
		if !strings.Contains(out, want) {
			t.Errorf("FigureTrees missing %q", want)
		}
	}
}

func TestHeadlineClaimTable(t *testing.T) {
	table, err := HeadlineClaim(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 3 {
		t.Fatalf("rows = %d, want Example3 + 2 random", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("claim failed on %v", row)
		}
	}
}

func TestTreeProjectionExperimentTable(t *testing.T) {
	table, err := TreeProjectionExperiment(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// The Example 6 row has the known 1-scheme witness.
	if table.Rows[0][3] != "1" || table.Rows[0][4] != "ABCEFG" {
		t.Errorf("Example 6 witness = %v", table.Rows[0])
	}
}

func TestInvariantAuditTable(t *testing.T) {
	table, err := InvariantAudit(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[3] != "0" {
			t.Errorf("violations on %v", row)
		}
	}
}

func TestStrategyComparisonTable(t *testing.T) {
	table, err := StrategyComparison(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		for _, cell := range row {
			if cell == "WRONG" {
				t.Errorf("a strategy computed a wrong result: %v", row)
			}
		}
	}
	// The acyclic strategy is inapplicable on the two cyclic workloads.
	if table.Rows[0][5] != "—" || table.Rows[2][5] != "—" {
		t.Errorf("acyclic column on cyclic rows = %q, %q", table.Rows[0][5], table.Rows[2][5])
	}
}

func TestOptimalShapeSurveyTable(t *testing.T) {
	table, err := OptimalShapeSurvey(4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range table.Rows {
		// mean CPF/opt must be ≥ 1.
		var mean float64
		if _, err := fmt.Sscanf(row[5], "%f", &mean); err != nil || mean < 0.999 {
			t.Errorf("bad mean ratio %q in %v", row[5], row)
		}
	}
}

func TestEstimatorAccuracyTable(t *testing.T) {
	table, err := EstimatorAccuracy(14)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

func TestWCOJComparisonTable(t *testing.T) {
	table, err := WCOJComparison(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d, want 3 triangles + 2 cycles", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[4] != "0" {
			t.Errorf("wcoj intermediates %s, want 0: %v", row[4], row)
		}
		if strings.HasPrefix(row[0], "G(") && row[3] == "0" {
			t.Errorf("program intermediates 0 on a triangle: %v", row)
		}
	}
}

func TestIVMComparisonTable(t *testing.T) {
	table, err := IVMComparison(1992)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 8 {
		t.Fatalf("rows = %d, want 2 workloads × 4 batches", len(table.Rows))
	}
	// The acceptance is in counts: the delta route's step rows stay strictly
	// below a from-empty rebuild's on every batch.
	for _, row := range table.Rows {
		delta, err1 := strconv.ParseInt(row[5], 10, 64)
		rebuild, err2 := strconv.ParseInt(row[6], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("step-row cells %q, %q", row[5], row[6])
		}
		if delta >= rebuild {
			t.Errorf("Δ step rows %d not below rebuild's %d: %v", delta, rebuild, row)
		}
	}
}

func TestAdversarialGauntletTable(t *testing.T) {
	table, err := AdversarialGauntlet()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range table.Rows {
		budget, err1 := strconv.ParseInt(row[4], 10, 64)
		charge, err2 := strconv.ParseInt(row[5], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("budget/charge cells %q, %q", row[4], row[5])
		}
		if charge > budget {
			t.Errorf("max charge %d above the case budget %d: %v", charge, budget, row)
		}
	}
}

func TestTriangleExperimentTable(t *testing.T) {
	table, err := TriangleExperiment(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// The null-case claim: program/expression overhead stays small (well
	// under the r(a+5) = 24 bound; empirically < 1.5×).
	for _, row := range table.Rows {
		var ratio float64
		if _, err := fmt.Sscanf(row[6], "%f", &ratio); err != nil {
			t.Fatalf("ratio cell %q: %v", row[6], err)
		}
		if ratio >= 1.5 {
			t.Errorf("program overhead %.2f on triangles exceeds the expected small factor: %v", ratio, row)
		}
	}
}
