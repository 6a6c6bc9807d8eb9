package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

func TestFiresOnNthCheck(t *testing.T) {
	defer Reset()
	Enable("op", 3, nil)
	for i := 1; i <= 2; i++ {
		if err := Check("op"); err != nil {
			t.Fatalf("check %d fired early: %v", i, err)
		}
	}
	if err := Check("op"); !errors.Is(err, ErrInjected) {
		t.Fatalf("third check: got %v, want ErrInjected", err)
	}
	// Disarms after firing.
	if err := Check("op"); err != nil {
		t.Fatalf("after firing: %v", err)
	}
}

func TestCustomError(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Enable("op", 1, boom)
	if err := Check("op"); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestEnableFuncSideEffect(t *testing.T) {
	defer Reset()
	fired := false
	EnableFunc("op", 2, func() error { fired = true; return nil })
	if err := Check("op"); err != nil || fired {
		t.Fatalf("first check: err=%v fired=%v", err, fired)
	}
	if err := Check("op"); err != nil || !fired {
		t.Fatalf("second check: err=%v fired=%v", err, fired)
	}
}

func TestActive(t *testing.T) {
	defer Reset()
	Enable("b", 1, nil)
	Enable("a", 1, nil)
	got := Active()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Active = %v", got)
	}
}

func TestUnarmedCheckIsNil(t *testing.T) {
	if err := Check("nothing-here"); err != nil {
		t.Fatalf("unarmed check: %v", err)
	}
}

func TestExitErrorMatchesInjected(t *testing.T) {
	defer Reset()
	EnableExit("op", 1, 7)
	err := Check("op")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("crash payload should match ErrInjected, got %v", err)
	}
	var ee *ExitError
	if !errors.As(err, &ee) || ee.Code != 7 {
		t.Fatalf("got %v, want *ExitError{Code: 7}", err)
	}
}

func TestExitIf(t *testing.T) {
	defer func() { exit = os.Exit }()
	var code = -1
	exit = func(c int) { code = c }
	ExitIf(nil)
	ExitIf(errors.New("plain"))
	if code != -1 {
		t.Fatalf("ExitIf exited on a non-crash error (code %d)", code)
	}
	ExitIf(&ExitError{Code: 3})
	if code != 3 {
		t.Fatalf("ExitIf(&ExitError{3}): exit code = %d, want 3", code)
	}
	code = -1
	ExitIf(fmt.Errorf("wal append: %w", &ExitError{Code: 5}))
	if code != 5 {
		t.Fatalf("wrapped ExitError: exit code = %d, want 5", code)
	}
}

func TestEnableFromEnv(t *testing.T) {
	defer Reset()
	const env = "FAILPOINT_TEST_SPEC"
	t.Setenv(env, "a@2=error; b=exit:4 ;c@3=error")
	if err := EnableFromEnv(env); err != nil {
		t.Fatal(err)
	}
	if got := Active(); len(got) != 3 {
		t.Fatalf("Active = %v, want a, b, c", got)
	}
	if err := Check("a"); err != nil {
		t.Fatalf("a fired on first check: %v", err)
	}
	if err := Check("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("a second check: %v", err)
	}
	var ee *ExitError
	if err := Check("b"); !errors.As(err, &ee) || ee.Code != 4 {
		t.Fatalf("b: got %v, want *ExitError{4}", err)
	}
	Reset()

	// Unset or empty arms nothing.
	t.Setenv(env, "")
	if err := EnableFromEnv(env); err != nil || len(Active()) != 0 {
		t.Fatalf("empty spec: err=%v active=%v", err, Active())
	}

	// Malformed specs are named errors.
	for _, bad := range []string{"justaname", "a@zero=error", "a@0=error", "=error", "a=exit:x", "a=explode"} {
		t.Setenv(env, bad)
		if err := EnableFromEnv(env); err == nil {
			t.Errorf("spec %q: want error, got nil", bad)
		}
		Reset()
	}
}

func TestConcurrentChecksFireExactlyOnce(t *testing.T) {
	defer Reset()
	Enable("op", 50, nil)
	var fired sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := Check("op"); err != nil {
					fired.Store(w*100+i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	count := 0
	fired.Range(func(_, _ any) bool { count++; return true })
	if count != 1 {
		t.Fatalf("failpoint fired %d times, want exactly 1", count)
	}
}
