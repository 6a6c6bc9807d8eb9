package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryRendersValidText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A test counter.")
	v := r.CounterVec("test_by_kind_total", "A labeled counter.", "kind", "status")
	r.GaugeFunc("test_gauge", "A callback gauge.", func() float64 { return 2.5 })
	h := r.Histogram("test_seconds", "A histogram.", []float64{0.1, 1, 10})

	c.Add(3)
	c.Add(-7) // ignored: counters only go up
	c.Inc()
	v.Inc("a", "ok")
	v.Add(2, "a", "failed")
	v.Inc("b", "ok")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP test_total A test counter.",
		"# TYPE test_total counter",
		"test_total 4",
		`test_by_kind_total{kind="a",status="failed"} 2`,
		`test_by_kind_total{kind="a",status="ok"} 1`,
		`test_by_kind_total{kind="b",status="ok"} 1`,
		"# TYPE test_gauge gauge",
		"test_gauge 2.5",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 3`,
		`test_seconds_bucket{le="+Inf"} 4`,
		"test_seconds_sum 100.05",
		"test_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Every non-comment line must be "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c_total", "c", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.Inc("x")
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	r.WriteText(&b)
	if out := b.String(); !strings.Contains(out, `c_total{k="x"} 1600`) || strings.Count(out, "c_total{") != 1 {
		t.Fatalf("want one series c_total{k=\"x\"} 1600:\n%s", out)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(0.003)
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	r.WriteText(&b)
	if out := b.String(); !strings.Contains(out, "h_seconds_count 4000\n") {
		t.Fatalf("want h_seconds_count 4000:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "x")
}
