package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// TestMain lets a test re-execute this binary as joinrun itself: with
// RUN_JOINRUN=1 set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_JOINRUN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// joinrun runs main in a child process and returns its stdout, stderr and
// exit status.
func joinrun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "RUN_JOINRUN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// triangleData writes a 30-tuple triangle database (three copies of a
// 10-edge random graph on 5 nodes; its join has 9 tuples) as TSV files
// and returns joinrun's -data value.
func triangleData(t *testing.T) string {
	t.Helper()
	db, err := workload.TriangleSpec{Nodes: 5, Edges: 10}.TriangleDatabase(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return writeData(t, db)
}

// writeData writes db's relations as TSV files under a test directory and
// returns joinrun's -data value.
func writeData(t *testing.T, db *relation.Database) string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i := 0; i < db.Len(); i++ {
		path := filepath.Join(dir, "r"+strconv.Itoa(i)+".tsv")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Relation(i).WriteTSV(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return strings.Join(paths, ",")
}

// TestNegativeLimitsAreUsageErrors: a negative -max-tuples or -timeout
// exits 2 before any join runs, instead of
// running unlimited; zero still means "no limit", and a real budget still
// aborts with exit status 3.
func TestNegativeLimitsAreUsageErrors(t *testing.T) {
	data := triangleData(t)
	for _, flagArgs := range [][]string{
		{"-max-tuples", "-1"},
		{"-timeout", "-1s"},
	} {
		args := append([]string{"-data", data, "-strategy", "program"}, flagArgs...)
		stdout, stderr, code := joinrun(t, args...)
		if code != 2 {
			t.Errorf("%s exited %d, want 2 (stdout %q, stderr %q)", strings.Join(flagArgs, " "), code, stdout, stderr)
			continue
		}
		if stdout != "" {
			t.Errorf("%s ran before rejecting the limit:\n%s", strings.Join(flagArgs, " "), stdout)
		}
		if !strings.Contains(stderr, flagArgs[0]) {
			t.Errorf("%s: stderr %q does not name the flag", strings.Join(flagArgs, " "), stderr)
		}
	}
	if _, stderr, code := joinrun(t, "-data", data, "-strategy", "program", "-max-tuples", "0"); code != 0 {
		t.Errorf("-max-tuples 0 exited %d, want 0: %s", code, stderr)
	}
	if _, stderr, code := joinrun(t, "-data", data, "-strategy", "program", "-max-tuples", "1"); code != 3 {
		t.Errorf("-max-tuples 1 exited %d, want 3 (a resource abort): %s", code, stderr)
	}
}

// TestSearchAbortExitsThree: on Example3(q=40) the program route's optimizer
// search crosses its tuple budget; joinrun reports that as a resource abort
// (exit status 3), and -json prints it with "aborted": true.
func TestSearchAbortExitsThree(t *testing.T) {
	spec, err := workload.Example3(40)
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		t.Fatal(err)
	}
	data := writeData(t, db)
	if _, stderr, code := joinrun(t, "-data", data, "-strategy", "program"); code != 3 || !strings.Contains(stderr, "aborted") {
		t.Errorf("program exited %d, want 3 with an abort message: %s", code, stderr)
	}
	stdout, stderr, code := joinrun(t, "-data", data, "-strategy", "program", "-json")
	var rep struct {
		Error   string `json:"error"`
		Aborted bool   `json:"aborted"`
	}
	if code != 3 || json.Unmarshal([]byte(stdout), &rep) != nil || !rep.Aborted || !strings.Contains(rep.Error, "search") {
		t.Errorf("program -json exited %d with %q, want 3 and an aborted search error: %s", code, stdout, stderr)
	}
}

// TestRetiredStrategyExitsOne: a retired strategy name (the unoptimized
// "direct" baseline, now computed only by the experiments) is a data error,
// exit 1, whose message lists the six valid strategies.
func TestRetiredStrategyExitsOne(t *testing.T) {
	stdout, stderr, code := joinrun(t, "-data", triangleData(t), "-strategy", "direct")
	if code != 1 || stdout != "" {
		t.Fatalf("-strategy direct exited %d with stdout %q, want 1 and none: %s", code, stdout, stderr)
	}
	for _, name := range []string{"auto", "program", "cpf-expression", "reduce-then-join", "acyclic", "wcoj"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr does not list %q: %s", name, stderr)
		}
	}
}

// TestRetiredIntermediateCapIsUndefined: the per-operator cap is gone —
// -max-tuples bounds every intermediate — so -max-intermediate is an
// undefined flag, a usage error (exit 2) before any join runs.
func TestRetiredIntermediateCapIsUndefined(t *testing.T) {
	stdout, stderr, code := joinrun(t, "-data", triangleData(t), "-max-intermediate", "5")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -max-intermediate") {
		t.Fatalf("-max-intermediate 5 exited %d with stdout %q, want 2, none and an undefined-flag error: %s", code, stdout, stderr)
	}
}
