package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

func plan(fp string) *engine.Plan {
	return &engine.Plan{Fingerprint: fp, Strategy: engine.StrategyExpression}
}

// errNotCached is get's compute result, so a miss caches nothing.
var errNotCached = errors.New("not cached")

// get looks key up through GetOrCompute, counting a hit or a miss and
// marking a hit most recently used, without caching anything on a miss. It
// must not race another caller of key: a coalesced caller would receive
// errNotCached.
func get(c *Cache, key string) (*engine.Plan, bool) {
	p, _, err := c.GetOrCompute(key, func() (*engine.Plan, error) { return nil, errNotCached })
	return p, err == nil
}

// put caches p under key through a GetOrCompute miss.
func put(c *Cache, key string, p *engine.Plan) {
	if _, _, err := c.GetOrCompute(key, func() (*engine.Plan, error) { return p, nil }); err != nil {
		panic(err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	put(c, "a", plan("a"))
	put(c, "b", plan("b"))
	if _, ok := get(c, "a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	put(c, "c", plan("c")) // evicts b, the least recently used
	if _, ok := get(c, "b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := get(c, k); !ok {
			t.Errorf("%s should still be cached", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want 1 eviction, len 2, cap 2", st)
	}
}

func TestCounters(t *testing.T) {
	c := New(4)
	get(c, "missing")
	put(c, "a", plan("a"))
	get(c, "a")
	get(c, "a")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits, 2 misses", st)
	}
}

func TestGetOrComputeCoalesces(t *testing.T) {
	c := New(4)
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	var fromCache atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, cached, err := c.GetOrCompute("k", func() (*engine.Plan, error) {
				computes.Add(1)
				<-release // hold the flight open so the others must coalesce
				return plan("k"), nil
			})
			if err != nil || p.Fingerprint != "k" {
				t.Errorf("GetOrCompute: %v, %v", p, err)
			}
			if cached {
				fromCache.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if got := fromCache.Load(); got != waiters-1 {
		t.Errorf("%d callers served without computing, want %d", got, waiters-1)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (*engine.Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := get(c, "k"); ok {
		t.Error("failed computation was cached")
	}
	// A later call retries the computation.
	p, cached, err := c.GetOrCompute("k", func() (*engine.Plan, error) { return plan("k"), nil })
	if err != nil || cached || p == nil {
		t.Errorf("retry = %v, %v, %v", p, cached, err)
	}
}

// TestConcurrentStress hammers GetOrCompute and reads of the entries across
// overlapping keys with a capacity small enough to force constant eviction;
// run under -race this is the cache's data-race certificate.
func TestConcurrentStress(t *testing.T) {
	c := New(8)
	const goroutines = 32
	const opsPer = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				switch i % 3 {
				case 0:
					put(c, key, plan(key))
				case 1:
					c.mu.Lock()
					if el, ok := c.items[key]; ok && el.Value.(*entry).plan.Fingerprint != key {
						t.Errorf("key %s holds plan %s", key, el.Value.(*entry).plan.Fingerprint)
					}
					c.mu.Unlock()
				default:
					p, _, err := c.GetOrCompute(key, func() (*engine.Plan, error) { return plan(key), nil })
					if err != nil || p.Fingerprint != key {
						t.Errorf("GetOrCompute(%s) = %v, %v", key, p, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Len > 8 {
		t.Errorf("len %d exceeds capacity", st.Len)
	}
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

// TestDistinctStrategiesSameFingerprintDoNotCoalesce: the serving layer keys
// plans as fingerprint + "#" + strategy, so one scheme queried under two
// strategies at once must run exactly one computation *per strategy* — the
// flights coalesce within a key, never across keys — and evicting one
// strategy's plan must not disturb the other's.
func TestDistinctStrategiesSameFingerprintDoNotCoalesce(t *testing.T) {
	c := New(4)
	const fp = "scheme-fp"
	strategies := []engine.Strategy{engine.StrategyProgram, engine.StrategyWCOJ}
	computes := make([]atomic.Int64, len(strategies))
	release := make(chan struct{})
	var wg sync.WaitGroup
	for si, s := range strategies {
		key := fp + "#" + s.String()
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(si int, s engine.Strategy, key string) {
				defer wg.Done()
				p, _, err := c.GetOrCompute(key, func() (*engine.Plan, error) {
					computes[si].Add(1)
					<-release
					return &engine.Plan{Fingerprint: fp, Strategy: s}, nil
				})
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				if p.Strategy != s {
					t.Errorf("key %s handed back a %s plan: strategies crossed flights", key, p.Strategy)
				}
			}(si, s, key)
		}
	}
	// No flight can finish before release closes, so every caller either
	// starts a flight (one per key) or blocks coalesced on it; wait for the
	// counters to show all 16 are parked before letting the flights land.
	for {
		st := c.Stats()
		if st.Misses == int64(len(strategies)) && st.Coalesced == int64(len(strategies))*7 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for si, s := range strategies {
		if got := computes[si].Load(); got != 1 {
			t.Errorf("strategy %s computed %d times, want 1", s, got)
		}
	}
	st := c.Stats()
	if st.Misses != int64(len(strategies)) {
		t.Errorf("misses = %d, want one per strategy", st.Misses)
	}
	if st.Coalesced != int64(len(strategies))*7 {
		t.Errorf("coalesced = %d, want 7 per strategy", st.Coalesced)
	}
	// Evict the program entry by filling the cache around it; the wcoj entry,
	// kept recently used, must survive with its own plan.
	wcojKey := fp + "#" + engine.StrategyWCOJ.String()
	for i := 0; i < 3; i++ {
		put(c, fmt.Sprintf("filler%d", i), plan("filler"))
		if _, ok := get(c, wcojKey); !ok {
			t.Fatalf("wcoj plan evicted while recently used (filler %d)", i)
		}
	}
	if _, ok := get(c, fp+"#"+engine.StrategyProgram.String()); ok {
		t.Error("program plan should have been evicted by the fillers")
	}
	if p, ok := get(c, wcojKey); !ok || p.Strategy != engine.StrategyWCOJ {
		t.Error("wcoj plan lost or corrupted after evictions")
	}
}

func TestInvalidatePrefix(t *testing.T) {
	c := New(8)
	put(c, "fpA#direct", plan("fpA"))
	put(c, "fpA#program", plan("fpA"))
	put(c, "fpB#direct", plan("fpB"))
	put(c, "fpAB#direct", plan("fpAB")) // shares a prefix with fpA's keys but not "fpA#"

	if n := c.InvalidatePrefix("fpA#"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	for _, gone := range []string{"fpA#direct", "fpA#program"} {
		if _, ok := get(c, gone); ok {
			t.Errorf("%s survived invalidation", gone)
		}
	}
	for _, kept := range []string{"fpB#direct", "fpAB#direct"} {
		if _, ok := get(c, kept); !ok {
			t.Errorf("%s was wrongly invalidated", kept)
		}
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", st.Invalidations)
	}
	if st.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0 (invalidation is not eviction)", st.Evictions)
	}
	if st.Len != 2 {
		t.Errorf("Len = %d, want 2", st.Len)
	}
	if n := c.InvalidatePrefix("nope"); n != 0 {
		t.Errorf("invalidated %d entries for an unknown prefix, want 0", n)
	}
}

func TestInvalidatePrefixKeepsLRUConsistent(t *testing.T) {
	c := New(3)
	put(c, "x#1", plan("x"))
	put(c, "y#1", plan("y"))
	put(c, "x#2", plan("x"))
	c.InvalidatePrefix("x#")
	// The list and map must still agree: filling back to capacity and over
	// evicts exactly once.
	put(c, "z#1", plan("z"))
	put(c, "z#2", plan("z"))
	put(c, "z#3", plan("z"))
	st := c.Stats()
	if st.Len != 3 {
		t.Fatalf("len = %d, want 3", st.Len)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, ok := get(c, "y#1"); ok {
		t.Error("y#1 should have been evicted as the least recently used")
	}
}

// TestInvalidatePrefixMarksInFlight pins the invalidation/coalescing
// ordering: a compute that starts before an InvalidatePrefix and finishes
// after it must not cache its (pre-invalidation) plan. Without the in-flight
// mark, the sequence compute-start → invalidate → put would re-install a
// stale plan that no later invalidation ever drops.
func TestInvalidatePrefixMarksInFlight(t *testing.T) {
	c := New(4)
	computing := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.GetOrCompute("fp#auto", func() (*engine.Plan, error) {
			close(computing)
			<-release
			return plan("stale"), nil
		})
		if err != nil {
			t.Errorf("GetOrCompute: %v", err)
		}
	}()
	<-computing
	// The ingest lands mid-compute and invalidates the prefix.
	c.InvalidatePrefix("fp#")
	close(release)
	<-done
	if _, ok := get(c, "fp#auto"); ok {
		t.Fatal("in-flight plan was cached despite the invalidation that raced its compute")
	}
	// A fresh compute after the invalidation caches normally.
	if _, served, err := c.GetOrCompute("fp#auto", func() (*engine.Plan, error) {
		return plan("fresh"), nil
	}); err != nil || served {
		t.Fatalf("fresh compute: served=%v err=%v", served, err)
	}
	if p, ok := get(c, "fp#auto"); !ok || p.Fingerprint != "fresh" {
		t.Fatalf("post-invalidation plan not cached (got %v, %v)", p, ok)
	}
}

// TestInvalidateRaceWithCoalescing hammers GetOrCompute (with coalescing
// waiters) against concurrent InvalidatePrefix calls; run under -race. The
// invariant checked per round: once an invalidation has happened after a
// compute started, the key is either absent or holds a plan from a compute
// that began after the last invalidation.
func TestInvalidateRaceWithCoalescing(t *testing.T) {
	c := New(8)
	var epoch atomic.Int64 // bumped on every invalidation
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				started := epoch.Load()
				p, _, err := c.GetOrCompute("fp#auto", func() (*engine.Plan, error) {
					return &engine.Plan{Fingerprint: fmt.Sprint(started), Strategy: engine.StrategyExpression}, nil
				})
				if err != nil || p == nil {
					t.Errorf("GetOrCompute: p=%v err=%v", p, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		epoch.Add(1)
		c.InvalidatePrefix("fp#")
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	// After the final invalidation with all workers stopped, any cached plan
	// must come from a compute that started at the current epoch — a stale
	// epoch here means an in-flight result was cached across an invalidation.
	final := epoch.Load()
	c.InvalidatePrefix("fp#")
	if p, ok := get(c, "fp#auto"); ok && p.Fingerprint != fmt.Sprint(final) {
		t.Fatalf("cached plan from epoch %s survived invalidation at epoch %d", p.Fingerprint, final)
	}
}
