package main

import (
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload through both passes with 200 ms windows and
// holds what it emits against BENCHMARK.json: the same workloads for the same
// reasons, exactly the declared metric names, no failed operation, and
// well-nested trace spans.
func TestSmoke(t *testing.T) {
	man, err := readManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(man.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := make(map[string]string)
	for _, m := range append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", m.Name)
		}
		if _, dup := declared[m.Name]; dup {
			t.Errorf("metric %q is declared twice", m.Name)
		}
		declared[m.Name] = m.Unit
	}

	win := windows{
		warm: 200 * time.Millisecond, measure: 200 * time.Millisecond,
		tracedWarm: 200 * time.Millisecond, traced: 200 * time.Millisecond,
		probe: 10 * time.Millisecond, setups: 1,
	}
	for i, w := range workloads {
		mw := man.Workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if mw.Name != w.name || mw.Why != w.why {
				t.Errorf("BENCHMARK.json has %q (%q), the benchmark %q (%q)", mw.Name, mw.Why, w.name, w.why)
			}
			if !name.MatchString(w.name) {
				t.Errorf("workload name %q is not made of letters, digits, '_', '.' and '-'", w.name)
			}
			if w.clients < 1 || w.clients > maxClients {
				t.Errorf("%d clients, want 1 to %d", w.clients, maxClients)
			}
			res, err := runWorkload(w, defaultSeed, win, passEndToEnd|passLayers, t.TempDir(), func(string) {})
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for n, m := range res.Metrics {
				if unit, ok := declared[n]; !ok {
					t.Errorf("emits %q, which BENCHMARK.json does not declare", n)
				} else if unit != m.Unit {
					t.Errorf("%q has unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
				}
			}
			for n := range declared {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("BENCHMARK.json declares %q, which is not emitted", n)
				}
			}
			for _, m := range man.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %q is %v, want above 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if len(res.spans) == 0 {
				t.Error("the traced replay recorded no spans")
			}
			if err := checkNested(res.spans); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) gives
	// [3.5, 13.5, 31.0]; the median is 13.5.
	got := spread([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if want := (31.0 - 3.5) / 13.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
