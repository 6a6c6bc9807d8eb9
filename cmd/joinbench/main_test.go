package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

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
