// Package experiments implements the reproduction harness: one function per
// experiment, E1–E13, EX1–EX6, EX8, EX9 and EX13, each returning a Table
// that cmd/joinbench prints and EXPERIMENTS.md records. Every table asserts
// counts, never clocks; wall time is the served benchmark's (bench/). The
// benchmarks in the repository root drive the same functions.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: a title, column headers, rows of
// cells, and free-form notes (the paper-vs-measured commentary).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = displayWidth(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && displayWidth(cell) > widths[i] {
				widths[i] = displayWidth(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - displayWidth(cell)
			}
			parts[i] = cell + strings.Repeat(" ", pad)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// RenderCSV writes the table as RFC-4180-style CSV (header row first, one
// line per row; cells containing commas, quotes, or newlines are quoted) —
// the plotting-friendly twin of Render. Notes are omitted.
func (t *Table) RenderCSV(w io.Writer) {
	writeCSVRow(w, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		parts[i] = c
	}
	fmt.Fprintln(w, strings.Join(parts, ","))
}

// displayWidth approximates the printed width: counts runes, not bytes, so
// ⋈ and π align.
func displayWidth(s string) int { return len([]rune(s)) }

// ratio formats a/b with two decimals, or "—" when b is zero.
func ratio(a, b int64) string {
	if b == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}
