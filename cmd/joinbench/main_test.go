package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/suite.golden from this run")

// TestMain lets a test re-execute this binary as joinbench itself: with
// RUN_JOINBENCH=1 set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_JOINBENCH") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// joinbench runs main in a child process inside dir and returns its
// stdout, stderr and exit status.
func joinbench(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "RUN_JOINBENCH=1")
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

func TestOnlyRejectsUnknownIDs(t *testing.T) {
	stdout, stderr, code := joinbench(t, t.TempDir(), "-quick", "-only", "E1,EX7,EX14")
	if code != 2 {
		t.Fatalf("-only E1,EX7,EX14 exited %d, want 2 (stderr %q)", code, stderr)
	}
	if stdout != "" {
		t.Errorf("-only E1,EX7,EX14 ran something before rejecting the id:\n%s", stdout)
	}
	for _, want := range []string{"EX14, EX7", "E1, E2", "E5/E6", "EX13"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q does not mention %q", stderr, want)
		}
	}
}

func TestOnlySelectsCompositeIDByEitherPart(t *testing.T) {
	for _, id := range []string{"E5", "e6"} {
		stdout, stderr, code := joinbench(t, t.TempDir(), "-quick", "-only", id)
		if code != 0 {
			t.Fatalf("-only %s exited %d: %s", id, code, stderr)
		}
		if !strings.Contains(stdout, "E5/E6 — ") {
			t.Errorf("-only %s did not run E5/E6:\n%s", id, stdout)
		}
	}
}

// TestNegativeLimitsAreUsageErrors: a negative -max-tuples or -timeout
// exits 2 before any experiment runs, instead of falling back to EX6's
// default budget or to no deadline.
func TestNegativeLimitsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-max-tuples", "-5"}, {"-timeout", "-1s"}} {
		stdout, stderr, code := joinbench(t, t.TempDir(), append([]string{"-only", "EX6"}, args...)...)
		if code != 2 {
			t.Errorf("%s exited %d, want 2 (stderr %q)", strings.Join(args, " "), code, stderr)
			continue
		}
		if stdout != "" {
			t.Errorf("%s ran something before rejecting the limit:\n%s", strings.Join(args, " "), stdout)
		}
		if !strings.Contains(stderr, args[0]) {
			t.Errorf("%s: stderr %q does not name the flag", strings.Join(args, " "), stderr)
		}
	}
}

func TestRunLeavesNoSideFiles(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := joinbench(t, dir, "-quick", "-only", "EX8"); code != 0 {
		t.Fatalf("-only EX8 exited %d: %s", code, stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("-only EX8 left %s behind in its working directory", e.Name())
	}
}

// TestSuiteMatchesGolden runs the full suite at its default seed, as
// `go run ./cmd/joinbench` does, and diffs its output against
// testdata/suite.golden: a change that moves any cost, count or table row
// fails here. After a deliberate change, rewrite the golden with
// `go test ./cmd/joinbench -run TestSuiteMatchesGolden -update` and say in
// the change why the rows moved.
func TestSuiteMatchesGolden(t *testing.T) {
	stdout, stderr, code := joinbench(t, t.TempDir())
	if code != 0 {
		t.Fatalf("the suite exited %d: %s", code, stderr)
	}
	golden := filepath.Join("testdata", "suite.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout == string(want) {
		return
	}
	got, wantLines := strings.Split(stdout, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		g, w := "<end of output>", "<end of golden>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("suite output differs from %s at line %d:\n got: %s\nwant: %s\n(%d lines, golden %d; -update rewrites it)",
				golden, i+1, g, w, len(got), len(wantLines))
		}
	}
}
