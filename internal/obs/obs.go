// Package obs is the query observability layer: tracing spans recording
// where a query spent its §2.3 cost and its wall time, a Prometheus-text
// metrics registry (metrics.go), and a bounded slow-query log (slowlog.go).
//
// The design mirrors internal/govern's nil-Governor idiom: a nil *Span is a
// valid span on which every method is a no-op, so execution code threads
// spans unconditionally and pays nothing — no allocation, no atomic, no
// lock — when tracing is disabled. Span creation is the only operation that
// must be guarded by the caller when building the span's name is itself
// costly:
//
//	var sp *obs.Span
//	if parent := gov.Span(); parent != nil {
//		sp = parent.Child(obs.KindStmt, stmt.String())
//	}
//	... work ...
//	sp.AddTuples(int64(out.Len()))
//	sp.End()
//
// Spans form a tree per query. By convention Span.Tuples carries the
// governor charge attributed to that span alone (children excluded), so for
// a completed query the recursive TupleTotal of the winning attempt's span
// equals Report.Produced — an invariant the engine's differential tests
// enforce across every strategy.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span for filtering and rendering.
type Kind string

// The span kinds produced by the engine, the executors, and the service.
const (
	// KindQuery is the root span of one query.
	KindQuery Kind = "query"
	// KindQueue covers the wait for an admission worker slot.
	KindQueue Kind = "queue"
	// KindPlanCache covers the plan-cache lookup (hit, miss, or coalesced
	// wait on another caller's derivation).
	KindPlanCache Kind = "plan-cache"
	// KindPlan covers optimizer search and Algorithm 1/2 derivation.
	KindPlan Kind = "plan"
	// KindAttempt covers one strategy attempt (a degradation-ladder rung, or
	// the single attempt of an explicit strategy).
	KindAttempt Kind = "attempt"
	// KindExecute covers governed execution of a cached plan.
	KindExecute Kind = "execute"
	// KindStmt covers one program statement.
	KindStmt Kind = "stmt"
	// KindTrie covers trie-index construction for the WCOJ backend.
	KindTrie Kind = "trie"
	// KindEnumerate covers the leapfrog enumeration of the WCOJ backend.
	KindEnumerate Kind = "enumerate"
	// KindVar reports per-variable binding counts of the WCOJ enumeration.
	KindVar Kind = "var"
)

// Span kinds that nothing emits. They stay defined because the served
// benchmark's layer tables name them.
const (
	KindResolve  Kind = "resolve"
	KindReduce   Kind = "reduce"
	KindEval     Kind = "eval"
	KindPipeline Kind = "pipeline"
)

// Span is one timed region of a query's execution. Spans are created with
// Child (or NewTrace for roots), accumulate a governor-charge tuple count
// and free-form notes, and are closed with End. All methods are safe on a
// nil receiver and safe for concurrent use, so one span may parent children
// created by concurrent executor goroutines.
type Span struct {
	kind   Kind
	name   string
	start  time.Time
	wall   atomic.Int64 // duration in ns, valid once ended is set
	ended  atomic.Bool
	tuples atomic.Int64

	mu       sync.Mutex
	children []*Span
	notes    []string
}

// newSpan starts a span now.
func newSpan(kind Kind, name string) *Span {
	return &Span{kind: kind, name: name, start: time.Now()}
}

// Child starts a sub-span. On a nil receiver it returns nil, so disabled
// tracing propagates down the tree for free; callers should still guard the
// call when computing the name is costly (see the package comment).
func (s *Span) Child(kind Kind, name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(kind, name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddTuples charges n tuples to this span (not its children). By convention
// this is the governor charge attributed to the span's own work.
func (s *Span) AddTuples(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.tuples.Add(n)
}

// Note appends a free-form annotation.
func (s *Span) Note(format string, args ...any) {
	if s == nil {
		return
	}
	n := fmt.Sprintf(format, args...)
	s.mu.Lock()
	s.notes = append(s.notes, n)
	s.mu.Unlock()
}

// End closes the span, fixing its wall time. Extra calls are ignored, so a
// deferred End composes with early explicit ones.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.ended.CompareAndSwap(false, true) {
		s.wall.Store(int64(time.Since(s.start)))
	}
}

// Kind returns the span's kind ("" on nil).
func (s *Span) Kind() Kind {
	if s == nil {
		return ""
	}
	return s.kind
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start instant (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	return s != nil && s.ended.Load()
}

// Wall returns the span's duration (zero until ended).
func (s *Span) Wall() time.Duration {
	if s == nil || !s.ended.Load() {
		return 0
	}
	return time.Duration(s.wall.Load())
}

// Tuples returns the tuples charged to this span alone.
func (s *Span) Tuples() int64 {
	if s == nil {
		return 0
	}
	return s.tuples.Load()
}

// Notes returns a copy of the span's annotations.
func (s *Span) Notes() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.notes...)
}

// Children returns the sub-spans, ordered by start time.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// TupleTotal returns the tuples charged to this span and all descendants —
// for a query's winning attempt, the governor's Produced total.
func (s *Span) TupleTotal() int64 {
	if s == nil {
		return 0
	}
	total := s.tuples.Load()
	for _, c := range s.Children() {
		total += c.TupleTotal()
	}
	return total
}

// Walk visits the span and its descendants depth-first in start order.
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	s.walk(fn, 0)
}

func (s *Span) walk(fn func(*Span, int), depth int) {
	fn(s, depth)
	for _, c := range s.Children() {
		c.walk(fn, depth+1)
	}
}

// CheckNested verifies the tree is well formed: every span has ended, every
// child started no earlier than its parent, and every child ended no later
// than its parent. It is the assertion shared by the engine and service
// trace tests.
func (s *Span) CheckNested() error {
	if s == nil {
		return nil
	}
	if !s.Ended() {
		return fmt.Errorf("obs: span %q (%s) never ended", s.name, s.kind)
	}
	end := s.start.Add(s.Wall())
	for _, c := range s.Children() {
		if c.start.Before(s.start) {
			return fmt.Errorf("obs: span %q starts %s before its parent %q",
				c.name, s.start.Sub(c.start), s.name)
		}
		if err := c.CheckNested(); err != nil {
			return err
		}
		if cEnd := c.start.Add(c.Wall()); cEnd.After(end) {
			return fmt.Errorf("obs: span %q ends %s after its parent %q",
				c.name, cEnd.Sub(end), s.name)
		}
	}
	return nil
}

// Format renders the span tree for humans: one line per span with its wall
// time, tuple charge, and notes, children indented under parents.
func (s *Span) Format() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Walk(func(sp *Span, depth int) {
		label := string(sp.kind)
		if sp.name != "" {
			label += " " + sp.name
		}
		fmt.Fprintf(&b, "%s%-*s %12s", strings.Repeat("  ", depth), 48-2*depth, label,
			sp.Wall().Round(time.Microsecond))
		if n := sp.Tuples(); n > 0 {
			fmt.Fprintf(&b, " %8d tuples", n)
		}
		if notes := sp.Notes(); len(notes) > 0 {
			fmt.Fprintf(&b, "  — %s", strings.Join(notes, "; "))
		}
		b.WriteByte('\n')
	})
	return strings.TrimRight(b.String(), "\n")
}

// SpanJSON is the wire form of a span tree (slow-query log entries, joinrun
// -json -trace).
type SpanJSON struct {
	Kind Kind   `json:"kind"`
	Name string `json:"name"`
	// StartOffsetMS is the span's start relative to the tree root, so
	// overlap between concurrent spans is visible.
	StartOffsetMS float64     `json:"start_offset_ms"`
	WallMS        float64     `json:"wall_ms"`
	Tuples        int64       `json:"tuples,omitempty"`
	Notes         []string    `json:"notes,omitempty"`
	Children      []*SpanJSON `json:"children,omitempty"`
}

// JSON converts the span tree to its wire form, with offsets relative to s.
func (s *Span) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	return s.json(s.start)
}

func (s *Span) json(origin time.Time) *SpanJSON {
	j := &SpanJSON{
		Kind:          s.kind,
		Name:          s.name,
		StartOffsetMS: float64(s.start.Sub(origin)) / float64(time.Millisecond),
		WallMS:        float64(s.Wall()) / float64(time.Millisecond),
		Tuples:        s.Tuples(),
		Notes:         s.Notes(),
	}
	for _, c := range s.Children() {
		j.Children = append(j.Children, c.json(origin))
	}
	return j
}

// Trace is one query's span tree plus its identity.
type Trace struct {
	// ID is the per-query trace ID surfaced in joind responses.
	ID string
	// Root is the query's root span (kind KindQuery), already started.
	Root *Span
}

// NewTrace starts a trace: a fresh ID and a running root span.
func NewTrace(name string) *Trace {
	return &Trace{ID: newTraceID(), Root: newSpan(KindQuery, name)}
}

// Format renders the trace for humans.
func (t *Trace) Format() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("trace %s (%d tuples charged across spans)\n%s",
		t.ID, t.Root.TupleTotal(), t.Root.Format())
}

// traceSeq and traceSeed make trace IDs unique across the process: an
// 8-hex-char random process prefix plus a monotone counter.
var (
	traceSeq      atomic.Uint64
	traceSeedOnce sync.Once
	traceSeed     string
)

func newTraceID() string {
	traceSeedOnce.Do(func() {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degrade to a time-derived prefix; IDs stay unique in-process.
			traceSeed = fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
			return
		}
		traceSeed = hex.EncodeToString(b[:])
	})
	return fmt.Sprintf("%s-%06x", traceSeed, traceSeq.Add(1))
}

// Collector retains the most recent completed traces in a bounded ring. It
// is safe for concurrent use; the serving layer hands it every trace it
// finishes.
type Collector struct {
	mu     sync.Mutex
	cap    int
	traces []*Trace
}

// NewCollector returns a Collector keeping at most capacity finished traces
// (capacity <= 0 keeps 16).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 16
	}
	return &Collector{cap: capacity}
}

// FinishQuery keeps a completed trace (its root span has ended), dropping
// the oldest beyond capacity. A nil trace is ignored.
func (c *Collector) FinishQuery(t *Trace) {
	if t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.traces = append(c.traces, t)
	if len(c.traces) > c.cap {
		c.traces = append(c.traces[:0], c.traces[len(c.traces)-c.cap:]...)
	}
}

// Traces returns the retained traces, oldest first.
func (c *Collector) Traces() []*Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Trace(nil), c.traces...)
}
