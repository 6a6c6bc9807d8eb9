// Command joinbench runs the full reproduction suite — every experiment in
// DESIGN.md's index — and prints the paper-vs-measured tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	joinbench [-quick] [-seed N] [-only E1,E3,...] [-timeout 5m] [-max-tuples n] [-json results.json] [-csv dir]
//
// -quick lowers trial counts and scales for a fast smoke run; -only selects
// a comma-separated subset of experiment ids (E5 and E6 each select the
// combined E5/E6 table), and an id that names no experiment is a usage error
// (exit status 2) that lists the valid ids. -timeout bounds the whole
// suite: the deadline is checked between experiments, and the remaining
// ones are skipped (reported, exit status 1) once it passes. -max-tuples
// sets the tuple budget for the governance experiment EX6. -json also
// writes every experiment's outcome — id, title, ok/error, wall-clock
// milliseconds, and the table's columns, rows, and notes — as a JSON array
// to the given file ("-" for stdout), for dashboards and regression diffs.
// -csv also writes each table as <id>.csv into a directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced trial counts and scales")
	seed := flag.Int64("seed", 1992, "random seed for the randomized experiments")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	timeout := flag.Duration("timeout", 0, "suite deadline, checked between experiments (0 = none)")
	maxTuples := flag.Int64("max-tuples", 0, "tuple budget for the EX6 governance experiment (0 = its default)")
	jsonOut := flag.String("json", "", "write per-experiment results as JSON to this file (\"-\" for stdout)")
	flag.Parse()

	var deadline time.Time
	if *timeout > 0 {
		deadline = time.Now().Add(*timeout)
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[strings.ToUpper(id)] = true
		}
	}
	want := func(id string) bool {
		if len(selected) == 0 {
			return true
		}
		for _, part := range strings.Split(id, "/") {
			if selected[part] {
				return true
			}
		}
		return false
	}

	trials := 200
	measured := []int64{6, 10, 16, 20}
	e3Scale := int64(10)
	if *quick {
		trials = 30
		measured = []int64{6, 10}
	}
	// q = 100 and 1000 are the paper's k = 2 and k = 3 instances; beyond
	// q = 1000 the Θ(q⁵) CPF costs overflow int64.
	analytic := []int64{100, 1000}

	runs := []struct {
		id string
		fn func() (*experiments.Table, error)
	}{
		{"E1", func() (*experiments.Table, error) { return experiments.Example3Costs(measured, analytic) }},
		{"E2", experiments.Algorithm1Example},
		{"E3", func() (*experiments.Table, error) { return experiments.Algorithm2Example(e3Scale) }},
		{"E4", func() (*experiments.Table, error) { return experiments.Theorem1Verification(trials, *seed) }},
		{"E5/E6", func() (*experiments.Table, error) { return experiments.Theorem2Bound(trials/2, *seed) }},
		{"E7", experiments.FullReducerExperiment},
		{"E8", experiments.YannakakisExperiment},
		{"E9", experiments.SearchSpaceSizes},
		{"E10", func() (*experiments.Table, error) { return experiments.LinearCPFProbe(trials/10, *seed) }},
		{"E11", func() (*experiments.Table, error) { return experiments.HeadlineClaim(trials/20, *seed) }},
		{"E12", func() (*experiments.Table, error) { return experiments.TreeProjectionExperiment(trials/25, *seed) }},
		{"E13", func() (*experiments.Table, error) { return experiments.InvariantAudit(trials/5, *seed) }},
		{"EX1", func() (*experiments.Table, error) { return experiments.OptimizerComparison(*seed) }},
		{"EX2", func() (*experiments.Table, error) { return experiments.StrategyComparison(*seed) }},
		{"EX3", func() (*experiments.Table, error) { return experiments.OptimalShapeSurvey(trials/4, *seed) }},
		{"EX4", func() (*experiments.Table, error) { return experiments.EstimatorAccuracy(*seed) }},
		{"EX5", func() (*experiments.Table, error) { return experiments.TriangleExperiment(*seed) }},
		{"EX6", func() (*experiments.Table, error) { return experiments.GovernanceLadder(e3Scale, *maxTuples) }},
		{"EX8", func() (*experiments.Table, error) { return experiments.WCOJComparison(*seed) }},
		{"EX9", func() (*experiments.Table, error) { return experiments.IVMComparison(*seed) }},
		{"EX13", experiments.AdversarialGauntlet},
	}

	// A mistyped -only id must not pass as an empty, successful run.
	known := map[string]bool{}
	var ids []string
	for _, r := range runs {
		ids = append(ids, r.id)
		for _, part := range strings.Split(r.id, "/") {
			known[part] = true
		}
	}
	var unknown []string
	for id := range selected {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "joinbench: unknown experiment id(s) %s in -only; valid ids: %s\n",
			strings.Join(unknown, ", "), strings.Join(ids, ", "))
		os.Exit(2)
	}

	fmt.Println("Reproduction suite — Morishita, \"Avoiding Cartesian Products in Programs for Multiple Joins\" (PODS 1992)")
	fmt.Println()
	if want("E2") || want("E3") {
		fmt.Println(experiments.FigureTrees())
		fmt.Println()
	}
	failed := 0
	var results []experimentResult
	for _, r := range runs {
		if !want(r.id) {
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "%s SKIPPED: suite deadline (%s) passed\n", r.id, *timeout)
			results = append(results, experimentResult{ID: r.id, Error: "skipped: suite deadline passed"})
			failed++
			continue
		}
		start := time.Now()
		table, err := r.fn()
		wallMS := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.id, err)
			results = append(results, experimentResult{ID: r.id, Error: err.Error(), WallMS: wallMS})
			failed++
			continue
		}
		results = append(results, experimentResult{
			ID:      table.ID,
			Title:   table.Title,
			OK:      true,
			WallMS:  wallMS,
			Columns: table.Columns,
			Rows:    table.Rows,
			Notes:   table.Notes,
		})
		table.Render(os.Stdout)
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(*csvDir, table); err != nil {
				fmt.Fprintf(os.Stderr, "csv %s: %v\n", r.id, err)
				failed++
			}
		}
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// experimentResult is one entry of the -json output: the experiment's
// outcome plus its full table, machine-readable.
type experimentResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title,omitempty"`
	OK      bool       `json:"ok"`
	Error   string     `json:"error,omitempty"`
	WallMS  float64    `json:"wall_ms"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Notes   []string   `json:"notes,omitempty"`
}

// writeResults stores the -json report ("-" = stdout).
func writeResults(path string, results []experimentResult) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// writeCSV stores a table as <dir>/<id>.csv.
func writeCSV(dir string, table *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ReplaceAll(table.ID, "/", "-") + ".csv"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	table.RenderCSV(f)
	return f.Close()
}
