package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsInert(t *testing.T) {
	var s *Span
	if c := s.Child(KindStmt, "x"); c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	s.AddTuples(5)
	s.Note("ignored %d", 1)
	s.End()
	if s.Ended() || s.Tuples() != 0 || s.Wall() != 0 || s.TupleTotal() != 0 {
		t.Fatal("nil span leaked state")
	}
	if s.Format() != "" || s.JSON() != nil || s.Children() != nil || s.Notes() != nil {
		t.Fatal("nil span rendered something")
	}
	if err := s.CheckNested(); err != nil {
		t.Fatalf("nil.CheckNested = %v", err)
	}
	s.Walk(func(*Span, int) { t.Fatal("nil.Walk visited a span") })
}

func TestSpanTreeTotalsAndNesting(t *testing.T) {
	tr := NewTrace("q")
	root := tr.Root
	root.AddTuples(1)
	a := root.Child(KindAttempt, "attempt: program")
	s1 := a.Child(KindStmt, "stmt 1")
	s1.AddTuples(10)
	s1.End()
	s2 := a.Child(KindStmt, "stmt 2")
	s2.AddTuples(32)
	s2.Note("head %s", "R(AB)")
	s2.End()
	a.End()
	root.End()

	if got := root.TupleTotal(); got != 43 {
		t.Fatalf("TupleTotal = %d, want 43", got)
	}
	if err := root.CheckNested(); err != nil {
		t.Fatalf("CheckNested: %v", err)
	}
	if !root.Ended() || root.Wall() <= 0 {
		t.Fatal("root not ended with a positive wall")
	}
	// End is idempotent: the wall does not grow on a second call.
	w := root.Wall()
	root.End()
	if root.Wall() != w {
		t.Fatal("second End changed the wall time")
	}

	out := root.Format()
	for _, want := range []string{"query q", "attempt: program", "stmt 2", "32 tuples", "head R(AB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}

	j := root.JSON()
	if j == nil || len(j.Children) != 1 || len(j.Children[0].Children) != 2 {
		t.Fatalf("JSON shape wrong: %+v", j)
	}
	if j.Children[0].Children[1].Tuples != 32 {
		t.Fatalf("JSON tuples = %d, want 32", j.Children[0].Children[1].Tuples)
	}
}

func TestCheckNestedCatchesUnendedSpan(t *testing.T) {
	root := NewTrace("q").Root
	c := root.Child(KindEval, "eval")
	_ = c // never ended
	root.End()
	if err := root.CheckNested(); err == nil {
		t.Fatal("CheckNested accepted an unended child")
	}
}

func TestConcurrentChildrenAndCharges(t *testing.T) {
	root := NewTrace("q").Root
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := root.Child(KindStmt, "s")
				c.AddTuples(2)
				root.AddTuples(1)
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := len(root.Children()); n != workers*perWorker {
		t.Fatalf("children = %d, want %d", n, workers*perWorker)
	}
	if got := root.TupleTotal(); got != int64(workers*perWorker*3) {
		t.Fatalf("TupleTotal = %d, want %d", got, workers*perWorker*3)
	}
	if err := root.CheckNested(); err != nil {
		t.Fatalf("CheckNested: %v", err)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTrace("q").ID
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestCollectorBounded(t *testing.T) {
	c := NewCollector(3)
	var last *Trace
	for i := 0; i < 5; i++ {
		tr := NewTrace("q")
		tr.Root.End()
		c.FinishQuery(tr)
		last = tr
	}
	got := c.Traces()
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3", len(got))
	}
	if got[2].ID != last.ID {
		t.Fatal("collector did not keep the most recent traces")
	}
	c.FinishQuery(nil) // must not panic
}

func TestSlowLogThresholdAndBound(t *testing.T) {
	l := NewSlowLog(10*time.Millisecond, 2)
	if l.Record(SlowEntry{TraceID: "fast", WallMS: 3}) {
		t.Fatal("recorded a query under the threshold")
	}
	for _, id := range []string{"a", "b", "c"} {
		if !l.Record(SlowEntry{TraceID: id, WallMS: 50}) {
			t.Fatalf("dropped slow query %q", id)
		}
	}
	got := l.Entries()
	if len(got) != 2 || got[0].TraceID != "c" || got[1].TraceID != "b" {
		t.Fatalf("entries = %+v, want newest-first [c b]", got)
	}
	if l.Recorded() != 3 {
		t.Fatalf("Recorded = %d, want 3", l.Recorded())
	}

	var nilLog *SlowLog
	if nilLog.Record(SlowEntry{WallMS: 1e9}) || nilLog.Entries() != nil || nilLog.Recorded() != 0 {
		t.Fatal("nil SlowLog recorded something")
	}

	// Threshold <= 0 captures everything.
	all := NewSlowLog(0, 4)
	if !all.Record(SlowEntry{TraceID: "x", WallMS: 0}) {
		t.Fatal("zero-threshold log dropped an instant query")
	}
}
