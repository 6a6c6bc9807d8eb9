package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is BENCHMARK.json: the names, units, directions and regression
// bounds every later change is held to.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readResults reads a result file: one JSON result per line, as -out appends
// them. Values are grouped by workload and metric name.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if values[res.Workload] == nil {
			values[res.Workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			values[res.Workload][name] = append(values[res.Workload][name], m.Value)
		}
	}
	return values, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4) gives
// them. It needs two values; fewer give 0.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}

// compare holds run set b against run set a: for every end-to-end metric of
// every workload, b's median may not be worse than a's by more than the
// metric's bound, and neither set may spread wider than the bound. It prints
// one row per pairing and returns how many broke their bound.
func compare(out io.Writer, man *manifest, a, b map[string]map[string][]float64) int {
	broken := 0
	fmt.Fprintf(out, "%-18s %-22s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound")
	for _, w := range man.Workloads {
		for _, em := range man.EndToEnd {
			va, vb := a[w.Name][em.Name], b[w.Name][em.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-18s %-22s missing from a result file\n", w.Name, em.Name)
				broken++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if em.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := ""
			if worse > em.Bound {
				verdict = "  WORSE THAN BOUND"
				broken++
			} else if em.Name != "setup_s" && max(sa, sb) > em.Bound {
				verdict = "  SPREAD WIDER THAN BOUND"
				broken++
			}
			fmt.Fprintf(out, "%-18s %-22s %12.4f %12.4f %+8.3f %8.3f %8.3f %6.2f%s\n", w.Name, em.Name, ma, mb, worse, sa, sb, em.Bound, verdict)
		}
	}
	return broken
}
