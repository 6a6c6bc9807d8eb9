// Package govern bounds the resources a join execution may consume. The
// paper's whole argument is that bad plans blow up intermediate results;
// this package is the runtime counterpart of that observation: a Governor
// carries one tuple budget and a cancellation context (whose deadline is
// the execution's clock), and every executing operator charges the tuples
// it materializes against it. When a limit is exceeded the operator aborts
// with a typed error (ErrTupleBudget, ErrCanceled, ErrDeadline — all
// matchable with errors.Is), so callers such as the engine facade can
// distinguish "this strategy blew its budget, try a safer one" from a
// genuine failure.
//
// Operators charge through an OpScope, one per operator, which gives each
// of the operator's goroutines a Meter: it counts locally and settles
// against the shared atomic counters only near the budget, every
// CheckEvery tuples or calls, and at Close. A sole charger aborts on exactly
// the tuple that crosses a budget; concurrent meters abort exactly when the
// final total exceeds one, and only the count they report may run past it.
// A nil *Governor is a valid, zero-cost "no limits" governor, so operator
// implementations thread it unconditionally.
package govern

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// Sentinel errors; match with errors.Is. Concrete errors returned by the
// Governor wrap these and carry the operator and the exhausted limit.
var (
	// ErrTupleBudget reports that MaxTuples (or the shared Pool) was
	// exceeded.
	ErrTupleBudget = errors.New("govern: tuple budget exhausted")
	// ErrCanceled reports that the execution's context was canceled.
	ErrCanceled = errors.New("govern: execution canceled")
	// ErrDeadline reports that the context's deadline passed mid-execution.
	ErrDeadline = errors.New("govern: deadline exceeded")
)

// DefaultCheckEvery is the default number of operator loop iterations
// between cancellation polls.
const DefaultCheckEvery = 1024

// Limits configures a Governor. The zero value means "no limits".
//
// The budget counts tuples *produced* by operators (every join, semijoin,
// projection, or product output row) — the §2.3 "generated relations", not
// the inputs, and not the optimizer's search work (the optimizer's catalog
// charges that to a governor of its own).
type Limits struct {
	// MaxTuples caps the total tuples produced across all operators of one
	// execution (0 = unlimited). It bounds every intermediate too: each is
	// part of the total.
	MaxTuples int64
	// Context cancels execution when done (nil = context.Background()). Its
	// deadline is the execution's timeout: a context that expires aborts
	// with ErrDeadline rather than ErrCanceled.
	Context context.Context
	// CheckEvery is the number of operator loop iterations between
	// cancellation polls (0 = DefaultCheckEvery), and the number of tuples
	// at which a Meter settles. The budget does not wait for either: a
	// Meter settles as soon as its pending tuples could cross it.
	CheckEvery int
	// Pool, when set, is a tuple budget shared with other executions: every
	// produced tuple is charged against the pool in addition to this
	// execution's own MaxTuples. A scatter-gather coordinator gives each
	// shard the same Pool so the shards collectively observe the budget one
	// sequential execution would: they abort if and only if the global
	// produced count exceeds it, however tuples split across shards.
	Pool *Pool
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.MaxTuples > 0 || l.Context != nil || l.Pool != nil
}

// Pool is a tuple budget shared by several Governors. Meters settle into
// it with atomic adds and check the post-add total, so concurrent
// executions (the per-shard governors of one scatter-gather query)
// collectively abort if and only if their total produced count exceeds the
// budget — the outcome a single Governor with MaxTuples = max gives one
// sequential execution.
type Pool struct {
	max  int64
	used atomic.Int64
}

// NewPool returns a pool holding max tuples. max <= 0 returns nil (no
// pooled limit), mirroring MaxTuples = 0.
func NewPool(max int64) *Pool {
	if max <= 0 {
		return nil
	}
	return &Pool{max: max}
}

// LimitError is the concrete error for an exhausted budget — MaxTuples or
// the pool standing in for it. It unwraps to ErrTupleBudget.
type LimitError struct {
	// Op names the operator that hit the limit ("relation.Join", ...).
	Op string
	// Max is the configured budget; Produced is the count that exceeded it.
	Max, Produced int64
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("%v: %s produced %d tuples, MaxTuples is %d", ErrTupleBudget, e.Op, e.Produced, e.Max)
}

// Unwrap makes errors.Is(err, ErrTupleBudget) true.
func (e *LimitError) Unwrap() error { return ErrTupleBudget }

// AbortError is the concrete error for a cancellation or deadline abort. It
// unwraps to the matching sentinel (ErrCanceled or ErrDeadline) and to the
// context's error as well.
type AbortError struct {
	// Op names the operator that observed the abort.
	Op string
	// Sentinel is ErrCanceled or ErrDeadline.
	Sentinel error
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("%v: at %s: %v", e.Sentinel, e.Op, e.Cause)
}

// Unwrap makes errors.Is match both the govern sentinel and the context
// cause.
func (e *AbortError) Unwrap() []error { return []error{e.Sentinel, e.Cause} }

// Governor enforces Limits over one execution. Obtain one from New; the nil
// *Governor enforces nothing and costs nothing.
type Governor struct {
	lim        Limits
	active     bool // any budget or context set
	checkEvery int
	ctx        context.Context
	done       <-chan struct{}
	produced   atomic.Int64
	failpoint  func(op string) error
	span       *obs.Span
}

// New returns a Governor enforcing lim. It is valid (and cheap) to create
// one from zero Limits — only fault-injection hooks then apply.
func New(lim Limits) *Governor {
	g := &Governor{
		lim:        lim,
		active:     lim.Enabled(),
		checkEvery: lim.CheckEvery,
	}
	if g.checkEvery <= 0 {
		g.checkEvery = DefaultCheckEvery
	}
	if lim.Context != nil {
		g.ctx, g.done = lim.Context, lim.Context.Done()
	}
	return g
}

// SetFailpoint installs a fault-injection hook consulted at every operator
// start (the engine wires the failpoint registry here). Must be set before
// execution starts; it is not synchronized against concurrent Begin calls.
func (g *Governor) SetFailpoint(fn func(op string) error) {
	if g != nil {
		g.failpoint = fn
	}
}

// SetSpan attaches the current tracing span, letting deep executors (the
// program executor, the wcoj enumerator) hang child spans off the
// governor they already receive instead of growing every signature. Like
// SetFailpoint it is installed by a single goroutine before the executor
// fans out, so no synchronization is needed; executors read it with Span.
func (g *Governor) SetSpan(s *obs.Span) {
	if g != nil {
		g.span = s
	}
}

// Span returns the span installed with SetSpan; nil when untraced (and on
// the nil Governor), which child-span call sites use to skip span-name
// formatting entirely.
func (g *Governor) Span() *obs.Span {
	if g == nil {
		return nil
	}
	return g.span
}

// Observe forces per-tuple accounting on even when no limit is set, so that
// Produced is meaningful for a traced but unlimited execution. The engine
// calls it when tracing is enabled.
func (g *Governor) Observe() {
	if g != nil {
		g.active = true
	}
}

// Produced returns the total tuples charged so far.
func (g *Governor) Produced() int64 {
	if g == nil {
		return 0
	}
	return g.produced.Load()
}

// Begin marks the start of one operator: the failpoint hook fires first,
// then cancellation is polled, so a cancellation is observed within one
// operator step even if no tuples flow. The returned scope charges the
// operator's output; both returns of a nil Governor are nil, and a nil
// *OpScope is valid.
//
// Begin itself writes nothing shared, so it is safe to call from concurrent
// goroutines; the failpoint hook must have been installed before execution
// started.
func (g *Governor) Begin(op string) (*OpScope, error) {
	if g == nil {
		return nil, nil
	}
	if g.failpoint != nil {
		if err := g.failpoint(op); err != nil {
			return nil, err
		}
	}
	if err := g.poll(op); err != nil {
		return nil, err
	}
	if !g.active {
		// Only fault injection applies: skip per-tuple accounting entirely.
		return nil, nil
	}
	return &OpScope{g: g, op: op}, nil
}

// poll checks the context: a done context aborts with ErrDeadline when its
// deadline passed, else with ErrCanceled.
func (g *Governor) poll(op string) error {
	if g.done == nil {
		return nil
	}
	select {
	case <-g.done:
		cause := g.ctx.Err()
		sentinel := ErrCanceled
		if errors.Is(cause, context.DeadlineExceeded) {
			sentinel = ErrDeadline
		}
		return &AbortError{Op: op, Sentinel: sentinel, Cause: cause}
	default:
		return nil
	}
}

// OpScope is one operator's handle on the governor: it names the operator
// in the errors its meters return. The nil scope (from a nil Governor)
// accepts everything.
type OpScope struct {
	g  *Governor
	op string
}

// charge adds delta (≥ 0) to the governor's and the pool's counters — one
// atomic add each; a zero delta only reads them — and checks each budget
// against the new totals in that order. It returns the headroom left: the
// fewest tuples either budget can still take, math.MaxInt64 when none is
// set, 0 on failure.
func (s *OpScope) charge(delta int64) (room int64, err error) {
	g := s.g
	var total int64
	if delta > 0 {
		total = g.produced.Add(delta)
	} else {
		total = g.produced.Load()
	}
	room = math.MaxInt64
	if lim := g.lim.MaxTuples; lim > 0 {
		if total > lim {
			return 0, &LimitError{Op: s.op, Max: lim, Produced: total}
		}
		room = lim - total
	}
	if p := g.lim.Pool; p != nil {
		var pooled int64
		if delta > 0 {
			pooled = p.used.Add(delta)
		} else {
			pooled = p.used.Load()
		}
		if pooled > p.max {
			return 0, &LimitError{Op: s.op, Max: p.max, Produced: pooled}
		}
		room = min(room, p.max-pooled)
	}
	return room, nil
}

// Meter is one goroutine's handle on an OpScope. Add and AddEach count into
// a private pending total, and the meter settles — one atomic add per
// counter, the budget checks, and a cancellation poll — only when pending
// exceeds the headroom the budgets had at its last settle, when
// pending reaches CheckEvery tuples, every CheckEvery calls, and at Close.
// The zero Meter, like the nil scope's, charges nothing.
//
// A sole charger therefore aborts on exactly the charge that crosses a
// budget, with the LimitError a tuple-at-a-time count reports, and with
// CheckEvery 1 every call settles. Meters charging one governor at once
// keep the outcome: every settle checks the post-add totals and every meter
// settles at Close, so an execution aborts if and only if its final total
// exceeds a budget. A settle fails on an exhausted budget even when the
// meter holds nothing, so the siblings of an aborted meter stop within
// CheckEvery calls. Only the count an abort reports may run past the
// crossing tuple, by what the other meters settle after it: each holds less
// than CheckEvery tuples plus the charge that makes it settle.
type Meter struct {
	s     *OpScope
	room  int // the budgets' headroom at the last settle
	flush int // min(room, CheckEvery−1): the most tuples held unsettled
	left  int // flush minus the tuples held; negative settles
	calls int // calls left before the next settle; negative settles
}

// unmetered is the nil scope's meter: its counters start so high that it
// never settles.
var unmetered = Meter{flush: math.MaxInt, left: math.MaxInt, calls: math.MaxInt}

// Meter returns a meter on s for one goroutine. Every meter must be closed
// before its operator returns a result.
func (s *OpScope) Meter() Meter {
	if s == nil {
		return unmetered
	}
	m := Meter{s: s}
	room, _ := s.charge(0)
	m.arm(room)
	return m
}

// Add charges delta ≥ 0 newly produced tuples. Callers call it once per
// loop iteration even when the iteration produced nothing (delta 0): the
// calls count toward the poll, so a probe streak with no matches still
// observes a cancellation within CheckEvery calls. Add is small enough to
// inline into a kernel's probe loop: one sign test covers both counters.
func (m *Meter) Add(delta int) error {
	m.left -= delta
	m.calls--
	if m.left|m.calls < 0 {
		return m.settle()
	}
	return nil
}

// AddEach charges n tuples as n calls of Add(1) would, in O(1). When the n
// overrun the headroom, only the tuples up to the first one past it are
// charged and the meter settles on that tuple: for a sole charger exactly
// the tuple a one-at-a-time loop aborts on, with the same LimitError.
func (m *Meter) AddEach(n int) error {
	if m.s == nil || n <= 0 {
		return nil
	}
	if n > m.room-m.held() {
		m.left = m.flush - (m.room + 1)
		return m.settle()
	}
	m.left -= n
	m.calls -= n
	if m.left|m.calls < 0 {
		return m.settle()
	}
	return nil
}

// Close settles whatever the meter still holds, failing if those tuples
// cross a budget.
func (m *Meter) Close() error {
	if m.s == nil || m.held() == 0 {
		return nil
	}
	return m.settle()
}

// held returns the tuples charged since the last settle.
func (m *Meter) held() int { return m.flush - m.left }

// settle charges the held tuples to the shared counters, re-arms the meter
// with the new headroom and polls cancellation.
func (m *Meter) settle() error {
	s := m.s
	if s == nil {
		*m = unmetered // the zero Meter: nothing to charge, ever
		return nil
	}
	room, err := s.charge(int64(m.held()))
	m.arm(room)
	if err != nil {
		return err
	}
	return s.g.poll(s.op)
}

// arm starts a settle interval at the headroom room. A failed charge reads
// as no room, so the next tuple settles and fails again.
func (m *Meter) arm(room int64) {
	m.room = int(min(room, math.MaxInt))
	m.flush = min(m.room, m.s.g.checkEvery-1)
	m.left, m.calls = m.flush, m.s.g.checkEvery-1
}
