package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-execute this binary as joind itself: with
// RUN_JOIND=1 set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RUN_JOIND") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// joind runs main in a child process on a free loopback port and returns
// its stderr and exit status. A child still running after a few seconds
// (a daemon that started serving) is killed and fails the test.
func joind(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "RUN_JOIND=1")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("joind %s was still running after 3s:\n%s", strings.Join(args, " "), out.String())
	}
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), code
}

// TestNegativeFlagsAreUsageErrors: every numeric flag but
// -checkpoint-every and -shard-broadcast-threshold rejects a negative value
// with exit status 2 before the daemon listens, instead of running with no
// budget, cap or deadline.
func TestNegativeFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-queue-depth", "-1"},
		{"-queue-timeout", "-1s"},
		{"-plan-cache", "-1"},
		{"-global-max-tuples", "-5"},
		{"-max-tuples-per-query", "-1"},
		{"-default-timeout", "-1s"},
		{"-query-workers", "-1"},
		{"-slow-threshold", "-1s"},
		{"-slow-log", "-1"},
		{"-drain", "-1s"},
		{"-fsync-interval", "-1s"},
		{"-shards", "-1"},
	} {
		stderr, code := joind(t, args...)
		if code != 2 || strings.Contains(stderr, "listening") {
			t.Errorf("%s exited %d, want 2 before listening:\n%s", strings.Join(args, " "), code, stderr)
			continue
		}
		if !strings.Contains(stderr, args[0]) {
			t.Errorf("%s: stderr %q does not name the flag", strings.Join(args, " "), stderr)
		}
	}
	// A negative -checkpoint-every (manual checkpoints only) and
	// -shard-broadcast-threshold (never broadcast by size) are settings, so
	// only the negative -workers beside them is named.
	stderr, code := joind(t, "-checkpoint-every", "-1", "-shard-broadcast-threshold", "-1", "-workers", "-1")
	if code != 2 || strings.Contains(stderr, "-checkpoint-every") || strings.Contains(stderr, "-shard-broadcast-threshold") {
		t.Errorf("exit %d, stderr %q: want 2, naming only -workers", code, stderr)
	}
}
