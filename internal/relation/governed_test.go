package relation

import (
	"context"
	"errors"
	"testing"

	"repro/internal/govern"
)

// skewed returns a relation over (a, b) with n tuples all sharing b = 0, so
// joining two of them on b yields n² tuples — a hash join degenerating to a
// product.
func skewed(t *testing.T, a, b string, n int) *Relation {
	t.Helper()
	r := New(MustSchema(a, b))
	for i := 0; i < n; i++ {
		r.MustInsert(Ints(int64(i), 0))
	}
	return r
}

func TestJoinGovernedBudgetAbort(t *testing.T) {
	l := skewed(t, "A", "B", 100)
	r := skewed(t, "C", "B", 100)
	g := govern.New(govern.Limits{MaxTuples: 500})
	out, err := JoinGoverned(g, l, r) // |l ⋈ r| = 10000 ≫ 500
	if out != nil {
		t.Fatalf("aborted join returned a partial result (%d tuples)", out.Len())
	}
	if !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("got %v, want ErrTupleBudget", err)
	}
	// The governor stops counting shortly after the budget: the overshoot
	// is bounded by one probe row's matches (≤ |build side|), not by the
	// full n² output — the abort really is mid-join.
	if got := g.Produced(); got > 500+int64(l.Len()) {
		t.Fatalf("governor charged %d tuples; abort was not prompt", got)
	}
}

func TestJoinGovernedProductAbort(t *testing.T) {
	l := skewed(t, "A", "B", 100)
	r := skewed(t, "C", "D", 100) // disjoint schemas: pure Cartesian product
	g := govern.New(govern.Limits{MaxTuples: 500})
	out, err := JoinGoverned(g, l, r)
	if out != nil || !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("product abort: out=%v err=%v", out, err)
	}
	// The pure product path checks every tuple, so the overshoot is ≤ 1.
	if got := g.Produced(); got > 501 {
		t.Fatalf("product charged %d tuples before aborting", got)
	}
}

func TestJoinGovernedUnderLimitMatchesJoin(t *testing.T) {
	l := skewed(t, "A", "B", 20)
	r := skewed(t, "C", "B", 20)
	g := govern.New(govern.Limits{MaxTuples: 1000})
	got, err := JoinGoverned(g, l, r)
	if err != nil {
		t.Fatal(err)
	}
	want := Join(l, r)
	if !got.Equal(want) {
		t.Fatalf("governed join differs from plain join: %d vs %d tuples", got.Len(), want.Len())
	}
	if g.Produced() != int64(want.Len()) {
		t.Fatalf("charged %d tuples for a %d-tuple join", g.Produced(), want.Len())
	}
}

func TestGovernedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := govern.New(govern.Limits{Context: ctx})
	l := skewed(t, "A", "B", 10)
	r := skewed(t, "C", "B", 10)

	if _, err := JoinGoverned(g, l, r); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("join: got %v, want ErrCanceled", err)
	}
	if _, err := SemijoinGoverned(g, l, r); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("semijoin: got %v, want ErrCanceled", err)
	}
	if _, err := ProjectGoverned(g, l, MustSchema("A").AttrSet()); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("project: got %v, want ErrCanceled", err)
	}
}

func TestProjectGovernedBudget(t *testing.T) {
	r := skewed(t, "A", "B", 100)
	g := govern.New(govern.Limits{MaxTuples: 10})
	out, err := ProjectGoverned(g, r, MustSchema("A").AttrSet())
	if out != nil || !errors.Is(err, govern.ErrTupleBudget) {
		t.Fatalf("project abort: out=%v err=%v", out, err)
	}
}

func TestSemijoinGovernedChargesOutput(t *testing.T) {
	l := skewed(t, "A", "B", 30)
	r := skewed(t, "C", "B", 30)
	g := govern.New(govern.Limits{MaxTuples: 100})
	out, err := SemijoinGoverned(g, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 30 || g.Produced() != 30 {
		t.Fatalf("semijoin produced %d, charged %d; want 30/30", out.Len(), g.Produced())
	}
}

func TestGovernedFailpointHook(t *testing.T) {
	boom := errors.New("boom")
	g := govern.New(govern.Limits{MaxTuples: 1_000_000})
	hits := 0
	g.SetFailpoint(func(op string) error {
		if op == "relation.Join" {
			hits++
			if hits == 2 {
				return boom
			}
		}
		return nil
	})
	l := skewed(t, "A", "B", 5)
	r := skewed(t, "C", "B", 5)
	if _, err := JoinGoverned(g, l, r); err != nil {
		t.Fatalf("first join: %v", err)
	}
	if _, err := JoinGoverned(g, l, r); !errors.Is(err, boom) {
		t.Fatalf("second join: got %v, want injected fault", err)
	}
}
