package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a minimal Prometheus-text-format metrics registry: counters,
// labeled counter vectors, callback gauges/counters, and histograms, all
// safe for concurrent use, rendered by WriteText in registration order. It
// implements just enough of the exposition format (version 0.0.4) for a
// Prometheus scraper — no external dependency.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// metric is anything the registry can render.
type metric interface {
	write(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register adds m under name, panicking on duplicates (a programmer error:
// metric names are compile-time constants).
func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// WriteText renders every registered metric in the Prometheus text format.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.write(w)
	}
}

// header writes the # HELP / # TYPE preamble.
func header(w io.Writer, name, help, typ string) {
	help = strings.ReplaceAll(help, "\\", `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, "\\", `\\`)
	v = strings.ReplaceAll(v, "\"", `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

func (c *Counter) write(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// CounterVec is a counter partitioned by one or more labels. Unused label
// combinations are absent from the output until first incremented.
type CounterVec struct {
	name, help string
	labels     []string

	mu   sync.Mutex
	vals map[string]*atomic.Int64
}

// CounterVec registers and returns a labeled counter.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	v := &CounterVec{name: name, help: help, labels: labels, vals: make(map[string]*atomic.Int64)}
	r.register(name, v)
	return v
}

// Inc adds one to the series for the given label values (one per label, in
// registration order).
func (v *CounterVec) Inc(labelValues ...string) { v.Add(1, labelValues...) }

// Add adds n to the series for the given label values.
func (v *CounterVec) Add(n int64, labelValues ...string) {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s got %d label values, want %d", v.name, len(labelValues), len(v.labels)))
	}
	key := strings.Join(labelValues, "\xff")
	v.mu.Lock()
	cell, ok := v.vals[key]
	if !ok {
		cell = new(atomic.Int64)
		v.vals[key] = cell
	}
	v.mu.Unlock()
	cell.Add(n)
}

// Sum totals the series whose value for label is value.
func (v *CounterVec) Sum(label, value string) int64 {
	i := slices.Index(v.labels, label)
	if i < 0 {
		panic(fmt.Sprintf("obs: %s has no label %q", v.name, label))
	}
	var n int64
	v.mu.Lock()
	defer v.mu.Unlock()
	for k, cell := range v.vals {
		if strings.Split(k, "\xff")[i] == value {
			n += cell.Load()
		}
	}
	return n
}

func (v *CounterVec) write(w io.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.vals))
	for k := range v.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		labels string
		n      int64
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		parts := strings.Split(k, "\xff")
		pairs := make([]string, len(parts))
		for i, p := range parts {
			pairs[i] = fmt.Sprintf("%s=%q", v.labels[i], escapeLabel(p))
		}
		rows = append(rows, row{labels: strings.Join(pairs, ","), n: v.vals[k].Load()})
	}
	v.mu.Unlock()
	for _, r := range rows {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, r.labels, r.n)
	}
}

// funcMetric renders a scrape-time callback as a gauge or counter. Used for
// values another subsystem already tracks (plan-cache stats, pool
// occupancy), so scraping never duplicates state.
type funcMetric struct {
	name, help, typ string
	fn              func() float64
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time; fn must be monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, typ: "counter", fn: fn})
}

func (m *funcMetric) write(w io.Writer) {
	header(w, m.name, m.help, m.typ)
	fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
}

// DefBuckets are the default histogram buckets, in seconds: half a
// millisecond up to ten seconds, roughly exponential — sized for query
// latencies and queue waits.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram with the standard cumulative
// exposition (name_bucket{le=...}, name_sum, name_count).
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // per bucket; counts[len(bounds)] = +Inf overflow
	sumBits    atomic.Uint64  // float64 bits of the observation sum
}

// Histogram registers and returns a histogram over the given ascending
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s buckets not ascending", name))
		}
	}
	h := &Histogram{name: name, help: help, bounds: append([]float64(nil), buckets...)}
	h.counts = make([]atomic.Int64, len(buckets)+1)
	r.register(name, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, floatBitsAdd(old, v)) {
			return
		}
	}
}

func (h *Histogram) write(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}

// floatBitsAdd adds v to the float64 encoded in bits, returning new bits —
// the CAS-loop body of Histogram.Observe.
func floatBitsAdd(bits uint64, v float64) uint64 {
	return math.Float64bits(math.Float64frombits(bits) + v)
}
