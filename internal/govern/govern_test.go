package govern

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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
	m := scope.Meter()
	for i := 0; i < 10_000; i++ {
		if err := m.Add(1); err != nil {
			t.Fatalf("nil scope's meter Add: %v", err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("nil scope's meter Close: %v", err)
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
			t.Fatalf("Begin should not enforce budgets, meters do: %v", err)
		}
		m := scope.Meter()
		var verr error
		for n := 1; n <= 60 && verr == nil; n++ {
			verr = m.Add(1)
		}
		if verr == nil {
			verr = m.Close()
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
		if !errors.As(verr, &le) || le.Op != "op1" || le.Max != 100 || le.Produced != 101 {
			t.Fatalf("error %v is not op1's MaxTuples LimitError at tuple 101", verr)
		}
		if want := "op1 produced 101 tuples, MaxTuples is 100"; !strings.HasSuffix(verr.Error(), want) {
			t.Fatalf("error %q does not end %q", verr, want)
		}
		return
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
	m := scope.Meter()
	cancel()
	var verr error
	for i := 0; i < 16 && verr == nil; i++ { // poll fires within CheckEvery calls
		verr = m.Add(0)
	}
	if !errors.Is(verr, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled within CheckEvery iterations", verr)
	}
}

func TestDeadline(t *testing.T) {
	// A context deadline in the past aborts the first operator as a
	// deadline, not a cancellation.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := New(Limits{Context: ctx}).Begin("op")
	if !errors.Is(err, ErrDeadline) || errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}

	// A deadline that passes mid-operator is seen within CheckEvery calls.
	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer cancel()
	scope, err := New(Limits{Context: ctx, CheckEvery: 4}).Begin("op")
	if err != nil {
		t.Fatalf("Begin before the deadline: %v", err)
	}
	m := scope.Meter()
	<-ctx.Done()
	for i := 0; i < 4 && err == nil; i++ {
		err = m.Add(1)
	}
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v within CheckEvery calls, want ErrDeadline", err)
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
			m := scope.Meter()
			for n := 1; n <= 1000; n++ {
				if err := m.Add(1); err != nil {
					t.Error(err)
					return
				}
			}
			if err := m.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := g.Produced(); got != 8*1000 {
		t.Fatalf("Produced = %d, want %d", got, 8*1000)
	}
}

func TestEnabled(t *testing.T) {
	cases := []struct {
		lim  Limits
		want bool
	}{
		{Limits{}, false},
		{Limits{MaxTuples: 1}, true},
		{Limits{Context: context.Background()}, true},
		{Limits{Pool: NewPool(1)}, true},
	}
	for i, c := range cases {
		if got := c.lim.Enabled(); got != c.want {
			t.Errorf("case %d: Enabled = %v, want %v", i, got, c.want)
		}
	}
}

// chargeAll runs one goroutine per charge list, each charging its list
// through its own meter of scope and closing it, and returns every
// goroutine's error.
func chargeAll(scope *OpScope, lists [][]int) []error {
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for w, list := range lists {
		wg.Add(1)
		go func(w int, list []int) {
			defer wg.Done()
			m := scope.Meter()
			for _, d := range list {
				if errs[w] = m.Add(d); errs[w] != nil {
					return
				}
			}
			errs[w] = m.Close()
		}(w, list)
	}
	wg.Wait()
	return errs
}

// ones returns n unit charges.
func ones(n int) []int {
	list := make([]int, n)
	for i := range list {
		list[i] = 1
	}
	return list
}

func TestSharedScopeConcurrentAdd(t *testing.T) {
	// One operator scope charged from many partition workers, one meter
	// each: the exact total must land on the governor.
	g := New(Limits{MaxTuples: 1_000_000})
	scope, err := g.Begin("relation.ParallelJoin")
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]int, 8)
	for w := range lists {
		lists[w] = ones(1000)
	}
	for _, err := range chargeAll(scope, lists) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Produced(); got != 8*1000 {
		t.Fatalf("Produced = %d, want %d", got, 8*1000)
	}
}

func TestSharedScopeAddZeroPollsCancellation(t *testing.T) {
	// A probe streak with no matches still observes a cancellation: Add(0)
	// counts toward the poll.
	ctx, cancel := context.WithCancel(context.Background())
	g := New(Limits{Context: ctx, CheckEvery: 16})
	scope, err := g.Begin("relation.ParallelJoin")
	if err != nil {
		t.Fatal(err)
	}
	m := scope.Meter()
	cancel()
	var aborted error
	for i := 0; i < 64 && aborted == nil; i++ {
		aborted = m.Add(0)
	}
	if !errors.Is(aborted, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", aborted)
	}
}

func TestSharedScopeExactBudgetNotExceeded(t *testing.T) {
	// Racing meters charging exactly the budget must all succeed; one more
	// charge must fail. Every settle checks post-add totals and every meter
	// settles at Close, so the outcome does not depend on interleaving.
	g := New(Limits{MaxTuples: 800})
	scope, err := g.Begin("op")
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]int, 8)
	for w := range lists {
		lists[w] = ones(100)
	}
	for _, err := range chargeAll(scope, lists) {
		if err != nil {
			t.Fatalf("charge within budget failed: %v", err)
		}
	}
	m := scope.Meter()
	if err := m.Add(1); !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("charge beyond budget: got %v, want ErrTupleBudget", err)
	}
}

// meterLimits are the two budgets a meter settles against: lim(n) sets one
// to n (a fresh pool each call).
var meterLimits = []struct {
	name string
	lim  func(n int64) Limits
}{
	{"MaxTuples", func(n int64) Limits { return Limits{MaxTuples: n} }},
	{"Pool", func(n int64) Limits { return Limits{Pool: NewPool(n)} }},
}

// soleCharge charges deltas through one meter of a fresh governor under lim
// — by Add, or by AddEach when each — closes it, and returns the error and
// the governor's total.
func soleCharge(lim Limits, deltas []int, each bool) (error, int64) {
	g := New(lim)
	scope, err := g.Begin("op")
	if err != nil {
		return err, 0
	}
	m := scope.Meter()
	for _, d := range deltas {
		if each {
			err = m.AddEach(d)
		} else {
			err = m.Add(d)
		}
		if err != nil {
			return err, g.Produced()
		}
	}
	return m.Close(), g.Produced()
}

func TestMeterSoleChargerCrossesExactly(t *testing.T) {
	// A sole charger aborts on the very charge that crosses each budget,
	// with the LimitError and governor total that CheckEvery 1 — a settle
	// on every call, the tuple-at-a-time count — gives.
	rng := rand.New(rand.NewSource(38))
	for _, b := range meterLimits {
		for trial := 0; trial < 200; trial++ {
			deltas := make([]int, 400)
			for i := range deltas {
				deltas[i] = rng.Intn(8) // zeros included: calls that only poll
			}
			for _, each := range []bool{false, true} {
				exact := b.lim(1000)
				exact.CheckEvery = 1
				want, wantTotal := soleCharge(exact, deltas, each)
				got, gotTotal := soleCharge(b.lim(1000), deltas, each)
				sum := 0
				for _, d := range deltas {
					sum += d
				}
				var wl, gl *LimitError
				if sum <= 1000 {
					if want != nil || got != nil || gotTotal != int64(sum) {
						t.Fatalf("%s: %d tuples fit 1000, got %v / %v, charged %d", b.name, sum, want, got, gotTotal)
					}
					continue
				}
				if !errors.As(want, &wl) || !errors.As(got, &gl) || *wl != *gl || gotTotal != wantTotal {
					t.Fatalf("%s (AddEach %v): abort %v at %d, CheckEvery 1 gives %v at %d", b.name, each, got, gotTotal, want, wantTotal)
				}
				if gl.Max != 1000 || gl.Produced > 1000+7 {
					t.Fatalf("%s: abort %+v past the crossing charge", b.name, *gl)
				}
			}
		}
	}
}

func TestMeterAddEachMatchesOneAtATime(t *testing.T) {
	// AddEach(n) is n calls of Add(1): same total, and under each budget the
	// same LimitError, on the tuple a one-at-a-time loop stops at.
	rng := rand.New(rand.NewSource(1210))
	for _, b := range meterLimits {
		for trial := 0; trial < 200; trial++ {
			var each, units []int
			for i := 0; i < 1+rng.Intn(20); i++ {
				n := rng.Intn(150)
				each = append(each, n)
				units = append(units, ones(n)...)
			}
			every := 1 + rng.Intn(64)
			lim := func() Limits { l := b.lim(1000); l.CheckEvery = every; return l }
			got, gotTotal := soleCharge(lim(), each, true)
			want, wantTotal := soleCharge(lim(), units, false)
			var gl, wl *LimitError
			if (got == nil) != (want == nil) || gotTotal != wantTotal ||
				(got != nil && (!errors.As(got, &gl) || !errors.As(want, &wl) || *gl != *wl)) {
				t.Fatalf("%s, CheckEvery %d: AddEach %v charged %d, Add(1) loop %v charged %d", b.name, every, got, gotTotal, want, wantTotal)
			}
		}
	}
	m := (*OpScope)(nil).Meter()
	if err := m.AddEach(1 << 40); err != nil || m.Close() != nil {
		t.Fatalf("the nil scope's meter charged: %v", err)
	}
}

func TestMeterRacingMetersAbortIffOverBudget(t *testing.T) {
	// 8 racing meters keep the outcome of one counter: the exact total
	// lands when it fits the budget, an abort comes exactly when it does
	// not, and the count an abort reports runs past the budget only by what
	// the other meters held unsettled.
	const meters, every = 8, 16
	rng := rand.New(rand.NewSource(1992))
	for trial := 0; trial < 100; trial++ {
		lists := make([][]int, meters)
		total := 0
		for w := range lists {
			lists[w] = make([]int, 50+rng.Intn(100))
			for i := range lists[w] {
				lists[w][i] = rng.Intn(3)
				total += lists[w][i]
			}
		}
		for _, b := range meterLimits {
			for _, budget := range []int{total, total - 1, total / 2} {
				lim := b.lim(int64(budget))
				lim.CheckEvery = every
				g := New(lim)
				scope, err := g.Begin("op")
				if err != nil {
					t.Fatal(err)
				}
				aborted, first := false, int64(-1)
				for _, err := range chargeAll(scope, lists) {
					var le *LimitError
					if err == nil {
						continue
					}
					if !errors.As(err, &le) || le.Max != int64(budget) {
						t.Fatalf("%s budget %d: %v", b.name, budget, err)
					}
					aborted = true
					if first < 0 || le.Produced < first {
						first = le.Produced
					}
				}
				if aborted != (total > budget) {
					t.Fatalf("%s: %d tuples under budget %d, aborted %v", b.name, total, budget, aborted)
				}
				if !aborted {
					if g.Produced() != int64(total) {
						t.Fatalf("%s: charged %d of %d", b.name, g.Produced(), total)
					}
					continue
				}
				// The first abort crosses with at most one meter's held
				// tuples plus its last charge (≤ 2); the rest settle at most
				// once more each.
				if over := first - int64(budget); over < 1 || over > (meters-1)*every+2 {
					t.Fatalf("%s: first abort reported %d over budget %d", b.name, over, budget)
				}
				if over := g.Produced() - int64(budget); over > meters*(every+2) {
					t.Fatalf("%s: charged %d past budget %d after the abort", b.name, over, budget)
				}
			}
		}
	}
}

func TestMeterAddZeroObservesCancellation(t *testing.T) {
	// A meter polls on its own calls: a cancellation is seen within
	// CheckEvery calls of Add(0), however few calls other meters make.
	for _, every := range []int{1, 5, 16} {
		ctx, cancel := context.WithCancel(context.Background())
		g := New(Limits{Context: ctx, CheckEvery: every})
		scope, err := g.Begin("op")
		if err != nil {
			t.Fatal(err)
		}
		m, idle := scope.Meter(), scope.Meter()
		for i := 0; i < 3*every; i++ {
			if err := m.Add(0); err != nil {
				t.Fatalf("CheckEvery %d: %v before cancellation", every, err)
			}
		}
		cancel()
		calls := 0
		for err = nil; err == nil && calls <= every; calls++ {
			err = m.Add(0)
		}
		if !errors.Is(err, ErrCanceled) || calls > every {
			t.Fatalf("CheckEvery %d: %v after %d calls, want ErrCanceled within %d", every, err, calls, every)
		}
		if err := idle.Close(); err != nil {
			t.Fatalf("closing an idle meter: %v", err)
		}
	}
}

func TestMetersChargeTheOperatorAndPollOnTheirOwn(t *testing.T) {
	// Meters are one operator to the budget: 4 meters × 300 tuples trip a
	// 1000-tuple limit none reaches alone. Charged round-robin,
	// the abort comes at most (meters−1)·CheckEvery + 1 tuples past the
	// limit — the tuples the other meters hold unsettled — where a shared
	// counter would abort on tuple 1001. Once it has, a sibling holding
	// nothing fails too at its next settle: the budget error is sticky.
	const every = 16
	g := New(Limits{MaxTuples: 1000, CheckEvery: every})
	scope, err := g.Begin("relation.Join")
	if err != nil {
		t.Fatal(err)
	}
	meters := []Meter{scope.Meter(), scope.Meter(), scope.Meter(), scope.Meter()}
	charged := 0
	for err == nil && charged < 1200 {
		err = meters[charged%4].Add(1)
		charged++
	}
	var lim *LimitError
	if !errors.As(err, &lim) || lim.Max != 1000 || lim.Produced <= 1000 ||
		lim.Produced > 1000+3*every+1 || charged > 1000+3*every+1 || g.Produced() != lim.Produced {
		t.Fatalf("after %d charges (governor saw %d): %v; want the budget's abort within %d tuples of 1001",
			charged, g.Produced(), err, 3*every)
	}
	idle := scope.Meter()
	var stopped error
	for i := 0; i < every && stopped == nil; i++ {
		stopped = idle.Add(0)
	}
	if !errors.Is(stopped, ErrTupleBudget) {
		t.Fatalf("a sibling after the abort: got %v within CheckEvery calls, want ErrTupleBudget", stopped)
	}

	// Each meter counts its own calls toward the poll: a cancellation is
	// seen within CheckEvery calls of one meter, however few calls its
	// siblings make.
	ctx, cancel := context.WithCancel(context.Background())
	g = New(Limits{MaxTuples: 1000, Context: ctx, CheckEvery: every})
	if scope, err = g.Begin("relation.Join"); err != nil {
		t.Fatal(err)
	}
	meters = []Meter{scope.Meter(), scope.Meter(), scope.Meter(), scope.Meter()}
	for i := 1; i < len(meters); i++ {
		if err := meters[i].Add(1); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	var aborted error
	for i := 0; i < every && aborted == nil; i++ {
		aborted = meters[0].Add(0)
	}
	if !errors.Is(aborted, ErrCanceled) {
		t.Fatalf("got %v within one meter's CheckEvery calls, want ErrCanceled", aborted)
	}
}
