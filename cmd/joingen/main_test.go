package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/relation"
)

// TestMain lets a test re-execute this binary as joingen itself: with
// RUN_JOINGEN=1 set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_JOINGEN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExample3WritesFourRelations: -example3 10 writes the paper-shaped
// 4-cycle as four TSV files that relation.ReadTSV loads back with
// q³+1, q²+1, q+1 and q²+1 tuples.
func TestExample3WritesFourRelations(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-example3", "10", "-out", dir)
	cmd.Env = append(os.Environ(), "RUN_JOINGEN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("joingen: %v\n%s", err, out)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1001, 101, 11, 101}
	if len(paths) != len(want) {
		t.Fatalf("wrote %v, want %d TSV files", paths, len(want))
	}
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := relation.ReadTSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if r.Len() != want[i] {
			t.Errorf("%s holds %d tuples, want %d", filepath.Base(path), r.Len(), want[i])
		}
	}
}
