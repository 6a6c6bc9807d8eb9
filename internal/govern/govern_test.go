package govern

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilGovernorIsUnlimited(t *testing.T) {
	var g *Governor
	scope, err := g.Begin("op")
	if err != nil {
		t.Fatalf("nil governor Begin: %v", err)
	}
	if scope != nil {
		t.Fatalf("nil governor returned non-nil scope")
	}
	for i := 0; i < 10_000; i++ {
		if err := scope.Visit(i); err != nil {
			t.Fatalf("nil scope Visit: %v", err)
		}
	}
	if g.Produced() != 0 {
		t.Fatalf("nil governor Produced = %d", g.Produced())
	}
}

func TestZeroLimitsSkipAccounting(t *testing.T) {
	g := New(Limits{})
	scope, err := g.Begin("op")
	if err != nil || scope != nil {
		t.Fatalf("zero-limit governor Begin = (%v, %v), want (nil, nil)", scope, err)
	}
}

func TestMaxTuplesAcrossOperators(t *testing.T) {
	g := New(Limits{MaxTuples: 100})
	for op := 0; ; op++ {
		scope, err := g.Begin(fmt.Sprintf("op%d", op))
		if err != nil {
			var le *LimitError
			if !errors.As(err, &le) || !errors.Is(err, ErrTupleBudget) {
				t.Fatalf("unexpected begin error: %v", err)
			}
			t.Fatalf("Begin should not enforce budgets, Visit does: %v", err)
		}
		var verr error
		for n := 1; n <= 60; n++ {
			if verr = scope.Visit(n); verr != nil {
				break
			}
		}
		if op == 0 {
			if verr != nil {
				t.Fatalf("first operator (60 tuples) should fit in 100: %v", verr)
			}
			continue
		}
		// Second operator pushes the total to 120 > 100.
		if verr == nil {
			t.Fatalf("second operator exceeded MaxTuples without error")
		}
		if !errors.Is(verr, ErrTupleBudget) {
			t.Fatalf("error %v does not match ErrTupleBudget", verr)
		}
		var le *LimitError
		if !errors.As(verr, &le) || le.Limit != "MaxTuples" {
			t.Fatalf("error %v is not a MaxTuples LimitError", verr)
		}
		return
	}
}

func TestMaxIntermediateTuples(t *testing.T) {
	g := New(Limits{MaxIntermediateTuples: 50})
	scope, err := g.Begin("big-op")
	if err != nil {
		t.Fatal(err)
	}
	var verr error
	for n := 1; n <= 60; n++ {
		if verr = scope.Visit(n); verr != nil {
			break
		}
	}
	if !errors.Is(verr, ErrTupleBudget) {
		t.Fatalf("got %v, want ErrTupleBudget", verr)
	}
	var le *LimitError
	if !errors.As(verr, &le) || le.Limit != "MaxIntermediateTuples" {
		t.Fatalf("error %v is not a MaxIntermediateTuples LimitError", verr)
	}
	// A fresh operator gets a fresh intermediate budget.
	scope2, err := g.Begin("next-op")
	if err != nil {
		t.Fatal(err)
	}
	if err := scope2.Visit(49); err != nil {
		t.Fatalf("fresh operator under the intermediate cap: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(Limits{Context: ctx})
	if _, err := g.Begin("op"); err != nil {
		t.Fatalf("pre-cancel Begin: %v", err)
	}
	cancel()
	_, err := g.Begin("op")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v should also match context.Canceled", err)
	}
}

func TestCancellationMidOperator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(Limits{Context: ctx, CheckEvery: 8})
	scope, err := g.Begin("op")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var verr error
	for i := 0; i < 16; i++ { // poll fires within CheckEvery iterations
		if verr = scope.Visit(0); verr != nil {
			break
		}
	}
	if !errors.Is(verr, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled within CheckEvery iterations", verr)
	}
}

func TestDeadline(t *testing.T) {
	g := New(Limits{Deadline: time.Now().Add(-time.Millisecond)})
	_, err := g.Begin("op")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

func TestContextDeadlineMapsToErrDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	g := New(Limits{Context: ctx})
	_, err := g.Begin("op")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v should also match context.DeadlineExceeded", err)
	}
}

func TestFailpointHookFiresAtBegin(t *testing.T) {
	boom := errors.New("boom")
	g := New(Limits{MaxTuples: 10})
	calls := 0
	g.SetFailpoint(func(op string) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if _, err := g.Begin("op1"); err != nil {
		t.Fatalf("first op: %v", err)
	}
	if _, err := g.Begin("op2"); !errors.Is(err, boom) {
		t.Fatalf("second op: got %v, want injected error", err)
	}
}

func TestConcurrentCharging(t *testing.T) {
	g := New(Limits{MaxTuples: 1_000_000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scope, err := g.Begin("op")
			if err != nil {
				t.Error(err)
				return
			}
			for n := 1; n <= 1000; n++ {
				if err := scope.Visit(n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := g.Produced(); got != 8*1000 {
		t.Fatalf("Produced = %d, want %d", got, 8*1000)
	}
}

func TestWithTimeout(t *testing.T) {
	l := Limits{}.WithTimeout(time.Hour)
	if l.Deadline.IsZero() {
		t.Fatal("WithTimeout did not set a deadline")
	}
	earlier := time.Now().Add(time.Minute)
	l2 := Limits{Deadline: earlier}.WithTimeout(time.Hour)
	if !l2.Deadline.Equal(earlier) {
		t.Fatalf("WithTimeout overrode an earlier deadline: %v", l2.Deadline)
	}
	if got := (Limits{MaxTuples: 1}).WithTimeout(0); !got.Deadline.IsZero() {
		t.Fatal("WithTimeout(0) set a deadline")
	}
}

func TestEnabled(t *testing.T) {
	cases := []struct {
		lim  Limits
		want bool
	}{
		{Limits{}, false},
		{Limits{MaxTuples: 1}, true},
		{Limits{MaxIntermediateTuples: 1}, true},
		{Limits{Deadline: time.Now()}, true},
		{Limits{Context: context.Background()}, true},
	}
	for i, c := range cases {
		if got := c.lim.Enabled(); got != c.want {
			t.Errorf("case %d: Enabled = %v, want %v", i, got, c.want)
		}
	}
}

func TestSharedScopeConcurrentAdd(t *testing.T) {
	// One operator scope charged from many partition workers: the exact
	// total must land on both the scope and the governor.
	g := New(Limits{MaxTuples: 1_000_000})
	scope, err := g.Begin("relation.ParallelJoin")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				if err := scope.Add(1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := g.Produced(); got != 8*1000 {
		t.Fatalf("Produced = %d, want %d", got, 8*1000)
	}
}

func TestSharedScopeIntermediateBudgetIsPerOperator(t *testing.T) {
	// MaxIntermediateTuples bounds the whole operator's output, not any one
	// worker's share: 4 workers× 400 tuples must trip a 1000-tuple limit
	// even though every worker stays under it individually.
	g := New(Limits{MaxIntermediateTuples: 1000})
	scope, err := g.Begin("relation.ParallelJoin")
	if err != nil {
		t.Fatal(err)
	}
	var tripped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 400; n++ {
				if err := scope.Add(1); err != nil {
					if !errors.Is(err, ErrTupleBudget) {
						t.Errorf("got %v, want ErrTupleBudget", err)
					}
					tripped.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tripped.Load() == 0 {
		t.Fatal("no worker observed the shared intermediate budget")
	}
}

func TestSharedScopeAddZeroPollsCancellation(t *testing.T) {
	// A probe streak with no matches still observes a cancellation: Add(0)
	// ticks the poll counter.
	ctx, cancel := context.WithCancel(context.Background())
	g := New(Limits{Context: ctx, CheckEvery: 16})
	scope, err := g.Begin("relation.ParallelJoin")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var aborted error
	for i := 0; i < 64 && aborted == nil; i++ {
		aborted = scope.Add(0)
	}
	if !errors.Is(aborted, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", aborted)
	}
}

func TestForkChargesTheOperatorAndPollsOnItsOwn(t *testing.T) {
	// Forks are one operator to the budgets: 4 forks × 300 tuples trip a
	// 1000-tuple intermediate limit none reaches alone, on exactly the
	// 1001st tuple. But each fork counts its own calls toward the poll: a
	// cancellation is seen within CheckEvery calls of one fork, however
	// few calls its siblings make.
	ctx, cancel := context.WithCancel(context.Background())
	g := New(Limits{MaxIntermediateTuples: 1000, Context: ctx, CheckEvery: 16})
	scope, err := g.Begin("relation.Join")
	if err != nil {
		t.Fatal(err)
	}
	forks := []*OpScope{scope.Fork(), scope.Fork(), scope.Fork(), scope.Fork()}
	charged := 0
	for err == nil {
		err = forks[charged%4].Add(1)
		charged++
	}
	var lim *LimitError
	if !errors.As(err, &lim) || lim.Limit != "MaxIntermediateTuples" || charged != 1001 || g.Produced() != 1001 {
		t.Fatalf("after %d charges (governor saw %d): %v; want the intermediate limit on charge 1001", charged, g.Produced(), err)
	}
	cancel()
	var aborted error
	for i := 0; i < 16 && aborted == nil; i++ {
		aborted = forks[0].Add(0)
	}
	if !errors.Is(aborted, ErrCanceled) {
		t.Fatalf("got %v within one fork's CheckEvery calls, want ErrCanceled", aborted)
	}
	if (*OpScope)(nil).Fork() != nil {
		t.Fatal("forking the nil scope must stay nil")
	}
}

func TestSharedScopeExactBudgetNotExceeded(t *testing.T) {
	// Racing workers charging exactly the budget must all succeed; one more
	// charge must fail. The budget check reads post-add totals, so the
	// outcome is deterministic regardless of interleaving.
	g := New(Limits{MaxTuples: 800})
	scope, err := g.Begin("op")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				if err := scope.Add(1); err != nil {
					t.Errorf("charge within budget failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := scope.Add(1); !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("charge beyond budget: got %v, want ErrTupleBudget", err)
	}
}
