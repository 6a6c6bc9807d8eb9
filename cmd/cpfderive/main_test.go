package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as cpfderive itself: with
// RUN_CPFDERIVE=1 set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_CPFDERIVE") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cpfderive runs main in a child process and returns its stdout, stderr
// and exit status.
func cpfderive(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "RUN_CPFDERIVE=1")
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

// TestReadmeExample runs README's invocation on Example 5's tree: the input
// is not CPF, Algorithm 1 can produce 16 CPF trees, and the derived program
// has 10 statements against Claim C's bound r(a+5) = 52.
func TestReadmeExample(t *testing.T) {
	stdout, stderr, code := cpfderive(t, "-scheme", "ABC CDE EFG GHA", "-expr", "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)", "-enumerate")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"CPF:              false\n",
		"Algorithm 1 can produce 16 distinct CPF trees",
		"10 statements < r(a+5) = 52",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestDisconnectedSchemeFails: Algorithm 1 needs a connected scheme.
func TestDisconnectedSchemeFails(t *testing.T) {
	if _, stderr, code := cpfderive(t, "-scheme", "AB CD"); code == 0 || !strings.Contains(stderr, "not connected") {
		t.Fatalf("exit %d, stderr %q: want a nonzero exit naming the disconnected scheme", code, stderr)
	}
}
