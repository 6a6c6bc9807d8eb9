// Package govern bounds the resources a join execution may consume. The
// paper's whole argument is that bad plans blow up intermediate results;
// this package is the runtime counterpart of that observation: a Governor
// carries tuple budgets, a deadline, and a cancellation context, and every
// executing operator charges the tuples it materializes against it. When a
// limit is exceeded the operator aborts with a typed error (ErrTupleBudget,
// ErrCanceled, ErrDeadline — all matchable with errors.Is), so callers such
// as the engine facade can distinguish "this strategy blew its budget, try
// a safer one" from a genuine failure.
//
// The Governor is safe for concurrent use (counters are atomic), and a nil
// *Governor is a valid, zero-cost "no limits" governor, so operator
// implementations thread it unconditionally.
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Sentinel errors; match with errors.Is. Concrete errors returned by the
// Governor wrap these and carry the operator and the exhausted limit.
var (
	// ErrTupleBudget reports that MaxTuples or MaxIntermediateTuples was
	// exceeded.
	ErrTupleBudget = errors.New("govern: tuple budget exhausted")
	// ErrCanceled reports that the execution's context was canceled.
	ErrCanceled = errors.New("govern: execution canceled")
	// ErrDeadline reports that the deadline passed mid-execution.
	ErrDeadline = errors.New("govern: deadline exceeded")
	// ErrViewBudget reports that view maintenance (internal/ivm) exhausted
	// its budget. The serving layer marks the view stale and rebuilds it
	// instead of failing the ingest that triggered the maintenance; the
	// concrete error wraps both this sentinel and the underlying
	// ErrTupleBudget abort.
	ErrViewBudget = errors.New("govern: view maintenance budget exhausted")
)

// DefaultCheckEvery is the default number of operator loop iterations
// between cancellation/deadline polls.
const DefaultCheckEvery = 1024

// Limits configures a Governor. The zero value means "no limits".
//
// The budgets count tuples *produced* by operators (every join, semijoin,
// projection, or product output row) — the §2.3 "generated relations", not
// the inputs, and not the optimizer's search work (which Options.Budget in
// the engine bounds separately).
type Limits struct {
	// MaxTuples caps the total tuples produced across all operators of one
	// execution (0 = unlimited).
	MaxTuples int64
	// MaxIntermediateTuples caps the tuples produced by any single operator
	// — the size of any one intermediate relation (0 = unlimited).
	MaxIntermediateTuples int64
	// Deadline aborts execution after this instant (zero = none). If
	// Context also carries a deadline, the earlier one wins.
	Deadline time.Time
	// Context cancels execution when done (nil = context.Background()).
	Context context.Context
	// CheckEvery is the number of operator loop iterations between
	// cancellation/deadline polls (0 = DefaultCheckEvery). Budgets are
	// enforced on every produced tuple regardless.
	CheckEvery int
	// Pool, when set, is a tuple budget shared with other executions: every
	// produced tuple is charged against the pool in addition to this
	// execution's own MaxTuples. A scatter-gather coordinator gives each
	// shard the same Pool so the shards collectively observe exactly the
	// budget one sequential execution would — the abort fires on the same
	// global produced count regardless of how tuples split across shards.
	Pool *Pool
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.MaxTuples > 0 || l.MaxIntermediateTuples > 0 ||
		!l.Deadline.IsZero() || l.Context != nil || l.Pool != nil
}

// Pool is a tuple budget shared by several Governors. Charges are atomic,
// so concurrent executions (the per-shard governors of one scatter-gather
// query) collectively abort exactly when their total produced count first
// exceeds the budget — the same boundary a single Governor with
// MaxTuples = max enforces over one sequential execution.
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

// Max returns the pool's budget.
func (p *Pool) Max() int64 {
	if p == nil {
		return 0
	}
	return p.max
}

// Used returns the tuples charged so far across all sharing governors.
func (p *Pool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}

// WithTimeout returns a copy of l whose Deadline is now+d (taking the
// earlier deadline if one is already set). d <= 0 returns l unchanged.
func (l Limits) WithTimeout(d time.Duration) Limits {
	if d <= 0 {
		return l
	}
	dl := time.Now().Add(d)
	if l.Deadline.IsZero() || dl.Before(l.Deadline) {
		l.Deadline = dl
	}
	return l
}

// LimitError is the concrete error for an exhausted budget. It unwraps to
// ErrTupleBudget.
type LimitError struct {
	// Op names the operator that hit the limit ("relation.Join", ...).
	Op string
	// Limit names the exhausted field ("MaxTuples" or
	// "MaxIntermediateTuples").
	Limit string
	// Max is the configured budget; Produced is the count that exceeded it.
	Max, Produced int64
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("%v: %s produced %d tuples, %s is %d", ErrTupleBudget, e.Op, e.Produced, e.Limit, e.Max)
}

// Unwrap makes errors.Is(err, ErrTupleBudget) true.
func (e *LimitError) Unwrap() error { return ErrTupleBudget }

// AbortError is the concrete error for a cancellation or deadline abort. It
// unwraps to the matching sentinel (ErrCanceled or ErrDeadline) and, when
// the abort came from the context, to the context's error as well.
type AbortError struct {
	// Op names the operator that observed the abort.
	Op string
	// Sentinel is ErrCanceled or ErrDeadline.
	Sentinel error
	// Cause is the context's error when the context triggered the abort
	// (context.Canceled or context.DeadlineExceeded), else nil.
	Cause error
}

// Error implements error.
func (e *AbortError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("%v: at %s: %v", e.Sentinel, e.Op, e.Cause)
	}
	return fmt.Sprintf("%v: at %s", e.Sentinel, e.Op)
}

// Unwrap makes errors.Is match both the govern sentinel and the context
// cause.
func (e *AbortError) Unwrap() []error {
	if e.Cause != nil {
		return []error{e.Sentinel, e.Cause}
	}
	return []error{e.Sentinel}
}

// Governor enforces Limits over one execution. Obtain one from New; the nil
// *Governor enforces nothing and costs nothing.
type Governor struct {
	lim         Limits
	active      bool // any budget/deadline/context set
	checkEvery  int
	deadline    time.Time // resolved earliest of Limits.Deadline and ctx deadline
	hasDeadline bool
	ctx         context.Context
	done        <-chan struct{}
	produced    atomic.Int64
	failpoint   func(op string) error
	span        *obs.Span
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
	g.deadline, g.hasDeadline = lim.Deadline, !lim.Deadline.IsZero()
	if lim.Context != nil {
		g.ctx = lim.Context
		g.done = lim.Context.Done()
		if dl, ok := lim.Context.Deadline(); ok && (!g.hasDeadline || dl.Before(g.deadline)) {
			g.deadline, g.hasDeadline = dl, true
		}
	}
	return g
}

// Limits returns the configured limits.
func (g *Governor) Limits() Limits {
	if g == nil {
		return Limits{}
	}
	return g.lim
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
// program schedulers, the wcoj enumerator) hang child spans off the
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
// then cancellation/deadline are polled, so a cancellation is observed
// within one operator step even if no tuples flow. The returned scope
// charges the operator's output; both returns of a nil Governor are nil,
// and a nil *OpScope is valid.
//
// Begin itself is safe to call from concurrent operators (the parallel
// program executor begins several statements at once); the failpoint hook
// must have been installed before execution started.
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
	s := &OpScope{g: g, op: op}
	s.produced = &s.own
	s.tick.Store(int64(g.checkEvery))
	return s, nil
}

// poll checks context cancellation and the deadline.
func (g *Governor) poll(op string) error {
	if g.done != nil {
		select {
		case <-g.done:
			cause := g.ctx.Err()
			sentinel := ErrCanceled
			if errors.Is(cause, context.DeadlineExceeded) {
				sentinel = ErrDeadline
			}
			return &AbortError{Op: op, Sentinel: sentinel, Cause: cause}
		default:
		}
	}
	if g.hasDeadline && time.Now().After(g.deadline) {
		return &AbortError{Op: op, Sentinel: ErrDeadline}
	}
	return nil
}

// OpScope tracks one operator's output against the governor. The nil scope
// (from a nil Governor) accepts everything.
//
// The counters are atomic, so one scope may be charged from many goroutines
// at once: a parallel operator begins a single scope and has every partition
// worker call Add with its deltas, which keeps MaxIntermediateTuples a
// property of the whole operator's output rather than of any one partition.
// Visit's cardinality-delta protocol is inherently single-writer; concurrent
// chargers must use Add.
type OpScope struct {
	g  *Governor
	op string
	// produced is the operator's output count: the scope's own counter, or
	// for a Fork the counter of the scope it was forked from.
	produced *atomic.Int64
	own      atomic.Int64
	tick     atomic.Int64
}

// Fork returns a scope for one worker of a parallel operator. It charges
// into s's counters, so both budgets still see the operator's whole output
// and abort on the same tuple, but counts its own calls toward the
// cancellation poll: a worker that calls Add once per loop iteration then
// touches shared memory only on the iterations that emit something. The
// fork is for one goroutine's use; s stays usable beside it.
func (s *OpScope) Fork() *OpScope {
	if s == nil {
		return nil
	}
	f := &OpScope{g: s.g, op: s.op, produced: s.produced}
	f.tick.Store(int64(s.g.checkEvery))
	return f
}

// Visit is called once per operator loop iteration with the operator's
// current output cardinality. It charges the delta since the last call
// against both budgets and periodically polls cancellation/deadline (every
// CheckEvery iterations, so a mid-operator cancellation is still observed
// promptly on iterations that produce nothing, e.g. a probe streak with no
// matches). Visit is for sequential operators — a single goroutine owns the
// cumulative count; concurrent partition workers charge with Add instead.
func (s *OpScope) Visit(produced int) error {
	if s == nil {
		return nil
	}
	delta := int64(produced) - s.produced.Load()
	if delta < 0 {
		delta = 0
	}
	return s.add(delta)
}

// Add charges delta newly produced tuples against both budgets and, like
// Visit, polls cancellation/deadline every CheckEvery calls — so workers
// should call it once per loop iteration even when the iteration produced
// nothing (delta 0), or a probe streak with no matches would never observe
// a cancellation. Add is safe for concurrent use: the per-operator and
// global counters are atomic, and the budget checks read the post-add
// totals, so across racing workers exactly the charges that fit the budget
// succeed and the first overshooting charge fails.
func (s *OpScope) Add(delta int) error {
	if s == nil {
		return nil
	}
	if delta < 0 {
		delta = 0
	}
	return s.add(int64(delta))
}

// add is the shared charging core of Visit and Add.
func (s *OpScope) add(delta int64) error {
	g := s.g
	if delta > 0 {
		opTotal := s.produced.Add(delta)
		total := g.produced.Add(delta)
		if g.lim.MaxIntermediateTuples > 0 && opTotal > g.lim.MaxIntermediateTuples {
			return &LimitError{Op: s.op, Limit: "MaxIntermediateTuples", Max: g.lim.MaxIntermediateTuples, Produced: opTotal}
		}
		if g.lim.MaxTuples > 0 && total > g.lim.MaxTuples {
			return &LimitError{Op: s.op, Limit: "MaxTuples", Max: g.lim.MaxTuples, Produced: total}
		}
		if p := g.lim.Pool; p != nil {
			if pooled := p.used.Add(delta); pooled > p.max {
				return &LimitError{Op: s.op, Limit: "MaxTuples", Max: p.max, Produced: pooled}
			}
		}
	}
	if s.tick.Add(-1) <= 0 {
		s.tick.Store(int64(g.checkEvery))
		return g.poll(s.op)
	}
	return nil
}
