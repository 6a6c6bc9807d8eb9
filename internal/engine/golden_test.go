package engine

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/relation"
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
		StrategyProgram, StrategyExpression, StrategyReduceThenJoin, StrategyDirect, StrategyWCOJ,
		StrategyHybrid,
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
