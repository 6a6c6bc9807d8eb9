// Package failpoint is a deterministic fault-injection registry for tests.
// A failpoint is named after the operator sites the governor passes to its
// hook ("relation.Join", "program.Stmt", "engine.strategy", …); enabling
// one arms it to fire on the nth time that site is reached. Tests use it to
// trigger aborts at a precise operator and verify that every abort path
// unwinds cleanly, returns the typed error, and never leaks a partial
// result.
//
// Beyond error injection, the package supports crash-point injection for
// process-level recovery tests: a point armed with an *ExitError payload
// (EnableExit, or an "exit:N" spec in EnableFromEnv) asks the site to
// terminate the process abruptly — no deferred cleanup, no flushes — via
// ExitIf. Sites that own buffered state (the WAL in internal/store) pair
// this with torn-write injection: on a fired point they first perform a
// deliberately partial side effect, then call ExitIf, so a crash harness
// can leave a half-written record behind exactly as a power cut would.
// EnableFromEnv arms points from an environment variable, which is how a
// child process under a crash harness (or a joind under JOIND_FAILPOINTS)
// gets its kill points without a code path to its registry.
//
// The registry is process-global and mutex-guarded; tests that enable
// failpoints must Reset them when done and must not run in
// parallel with other failpoint users.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrInjected is the default error an armed failpoint returns; tests can
// match it with errors.Is.
var ErrInjected = errors.New("failpoint: injected fault")

// ExitError is a crash-point payload: a site that receives it from Check is
// expected to finish any deliberately partial side effect (a torn write)
// and then call ExitIf, which terminates the process with Code — no
// deferred cleanup, simulating a kill -9 or power cut at that exact point.
// It still behaves as an ordinary error (matching ErrInjected) for sites
// that propagate instead of exiting, so an "exit" arming in a process that
// never reaches ExitIf degrades to error injection rather than a hang.
type ExitError struct {
	// Code is the process exit status (crash harnesses assert on it to
	// distinguish an injected crash from an ordinary failure).
	Code int
}

// Error implements error.
func (e *ExitError) Error() string {
	return fmt.Sprintf("failpoint: injected crash (exit %d)", e.Code)
}

// Unwrap makes errors.Is(err, ErrInjected) hold for crash payloads.
func (e *ExitError) Unwrap() error { return ErrInjected }

// exit is swapped out by tests that must not kill the test process.
var exit = os.Exit

// ExitIf terminates the process with err's exit code when err is an
// *ExitError (directly or wrapped); otherwise it is a no-op. Sites place it
// between their torn side effect and their normal error return:
//
//	if err := failpoint.Check("store.wal.torn"); err != nil {
//		f.Write(buf[:n/2]) // the torn write
//		failpoint.ExitIf(err)
//		return err         // in-process tests take this path
//	}
func ExitIf(err error) {
	var ee *ExitError
	if errors.As(err, &ee) {
		exit(ee.Code)
	}
}

type point struct {
	remaining int64
	fn        func() error
}

var (
	mu     sync.Mutex
	points = make(map[string]*point)
)

// Enable arms name to return err on the nth Check (1-based; n <= 1 means
// the next one). A nil err arms ErrInjected. Re-enabling replaces any
// previous arming.
func Enable(name string, nth int64, err error) {
	if err == nil {
		err = ErrInjected
	}
	EnableFunc(name, nth, func() error { return err })
}

// EnableFunc arms name to call fn on the nth Check and return fn's result.
// fn returning nil lets execution continue — useful for side effects such
// as canceling a context at a precise operator. The point disarms after
// firing once.
func EnableFunc(name string, nth int64, fn func() error) {
	if nth < 1 {
		nth = 1
	}
	mu.Lock()
	defer mu.Unlock()
	points[name] = &point{remaining: nth, fn: fn}
}

// EnableExit arms name as a crash point: on the nth Check the site receives
// an *ExitError and (via ExitIf) terminates the process with code.
func EnableExit(name string, nth int64, code int) {
	Enable(name, nth, &ExitError{Code: code})
}

// EnableFromEnv arms failpoints from the named environment variable, which
// holds a semicolon-separated list of specs:
//
//	point@nth=error        fire ErrInjected on the nth Check
//	point@nth=exit:code    fire an *ExitError{code} (crash point)
//
// "@nth" may be omitted (defaults to 1). An unset or empty variable arms
// nothing and returns nil; a malformed spec returns an error naming it.
// cmd/joind calls this with JOIND_FAILPOINTS at startup, and the store's
// crash harness uses it to arm kill points in its child processes.
func EnableFromEnv(envVar string) error {
	raw := os.Getenv(envVar)
	if raw == "" {
		return nil
	}
	for _, spec := range strings.Split(raw, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		lhs, action, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("failpoint: %s spec %q is not point[@nth]=action", envVar, spec)
		}
		name := lhs
		nth := int64(1)
		if point, n, hasNth := strings.Cut(lhs, "@"); hasNth {
			v, err := strconv.ParseInt(n, 10, 64)
			if err != nil || v < 1 {
				return fmt.Errorf("failpoint: %s spec %q has bad nth %q", envVar, spec, n)
			}
			name, nth = point, v
		}
		if name == "" {
			return fmt.Errorf("failpoint: %s spec %q has an empty point name", envVar, spec)
		}
		switch {
		case action == "error":
			Enable(name, nth, nil)
		case strings.HasPrefix(action, "exit:"):
			code, err := strconv.Atoi(strings.TrimPrefix(action, "exit:"))
			if err != nil || code < 0 {
				return fmt.Errorf("failpoint: %s spec %q has bad exit code", envVar, spec)
			}
			EnableExit(name, nth, code)
		default:
			return fmt.Errorf("failpoint: %s spec %q has unknown action %q", envVar, spec, action)
		}
	}
	return nil
}

// Reset removes every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = make(map[string]*point)
}

// Active returns the names of armed failpoints, sorted.
func Active() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Check is the hook the governor calls at each operator start. It counts
// down the named point and fires it on the nth hit; unarmed names return
// nil. It is safe for concurrent use.
func Check(name string) error {
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	p.remaining--
	if p.remaining > 0 {
		mu.Unlock()
		return nil
	}
	delete(points, name)
	mu.Unlock()
	// Run the payload outside the lock: it may cancel contexts or enable
	// other failpoints.
	return p.fn()
}
