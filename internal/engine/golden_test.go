package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// stepWall matches the wall-time column of an Explain "steps:" line; wall
// times vary run to run, so golden comparison replaces them with <dur>.
var stepWall = regexp.MustCompile(`(tuples)\s+\S+$`)

func normalizeExplain(s string) string {
	lines := strings.Split(s, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "  ") && strings.Contains(line, " tuples ") {
			lines[i] = stepWall.ReplaceAllString(strings.TrimRight(line, " "), "$1 <dur>")
		}
	}
	return strings.Join(lines, "\n")
}

// TestGoldenExplain pins Report.Plan and Report.Explain for every explicit
// strategy on the two canonical cyclic schemes: the triangle and the
// paper's Example 3 (at scale q=2). The golden files are the review surface
// for plan or report drift; regenerate with go test ./internal/engine
// -run TestGoldenExplain -update. Every case runs on a database no query
// has read yet, so the "tries: … resident, … built" note is the cold one
// whichever subtests run.
func TestGoldenExplain(t *testing.T) {
	dbs := []struct {
		name string
		mk   func() *relation.Database
	}{
		{"triangle", func() *relation.Database { return triangleDB(t) }},
		{"example3", func() *relation.Database { return example3DB(t, 2) }},
	}
	strategies := []Strategy{
		StrategyProgram, StrategyExpression, StrategyReduceThenJoin, StrategyWCOJ,
	}
	for _, d := range dbs {
		want := d.mk().Join()
		for _, s := range strategies {
			name := d.name + "_" + s.String()
			t.Run(name, func(t *testing.T) {
				rep, err := Join(d.mk(), Options{Strategy: s})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Equal(want) {
					t.Fatalf("wrong result: %d tuples, want %d", rep.Result.Len(), want.Len())
				}
				got := normalizeExplain(rep.Explain()) + "\n"
				path := filepath.Join("testdata", "golden", name+".golden")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				wantText, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to generate)", err)
				}
				if got != string(wantText) {
					t.Errorf("explain drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
						path, got, wantText)
				}
			})
		}
	}
}

// churnDatabases draws the plan_churn workload's 48 databases at seed 1992:
// schemes from the fixed scheme seed (three cyclic, then one acyclic, over
// six edges and seven attributes), tuples from the workload seed.
func churnDatabases(t *testing.T) []*relation.Database {
	t.Helper()
	const n = 48
	spec := workload.RandomSchemeSpec{Relations: 6, Attrs: 7, MaxArity: 3, Connected: true}
	schemes, rng := rand.New(rand.NewSource(1992)), rand.New(rand.NewSource(1992))
	seen := make(map[string]bool, n)
	dbs := make([]*relation.Database, 0, n)
	for len(dbs) < n {
		h, err := workload.RandomScheme(schemes, spec)
		if err != nil {
			t.Fatal(err)
		}
		if wantAcyclic := len(dbs)%4 == 3; h.Acyclic() != wantAcyclic || seen[h.Fingerprint()] {
			continue
		}
		seen[h.Fingerprint()] = true
		db, err := workload.RandomDatabase(rng, h, 40, 6)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	return dbs
}

// TestGoldenChurnPlans pins the tree and cost PlanFor chooses under program
// and cpf-expression for each of plan_churn's 48 schemes. The search sizes
// sub-joins on the data (optimizer.Catalog), so this golden is the review
// surface for any change to how the catalog measures them; regenerate with
// go test ./internal/engine -run TestGoldenChurnPlans -update.
func TestGoldenChurnPlans(t *testing.T) {
	var b strings.Builder
	for i, db := range churnDatabases(t) {
		h := hypergraph.OfScheme(db)
		_, ch, err := canonicalize(db, h)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "db%02d %s\n", i, ch)
		for _, s := range []Strategy{StrategyProgram, StrategyExpression} {
			p, err := PlanFor(db, Options{Strategy: s})
			if err != nil {
				t.Fatalf("db%02d %s: %v", i, s, err)
			}
			fmt.Fprintf(&b, "  %s: %s  [%s]\n", s, p.Tree.String(ch), p.Notes[0])
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "golden", "plan_churn_trees.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("plan_churn trees drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
