package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// metric is one reported number. Samples is how many observations it
// summarises (0 for a counter read at a boundary).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// pass selects which metric sets a run produces.
type pass int

const (
	passEndToEnd pass = 1 << iota // tracing off: what a user of joind sees
	passLayers                    // traced replay and probes: where the time goes
)

// windows are the wall-clock boxes of one run. Nothing in the benchmark is
// sized by an iteration count.
type windows struct {
	warm       time.Duration // discarded
	measure    time.Duration // tracing off; end-to-end metrics come from here only
	tracedWarm time.Duration // discarded, on the traced service
	traced     time.Duration // traced replay
	probe      time.Duration // budget of one layer probe
	// setups is how often set-up runs: setup_s is the median, and the last
	// instance serves the run.
	setups int
}

const (
	warmUp       = 2 * time.Second
	tracedWarmUp = time.Second
	maxTraced    = 3 * time.Second
	setupReps    = 9
	probeBudget  = 300 * time.Millisecond
	// tracedOpsKept bounds how many traced operations' span trees the trace
	// file holds; self times are summed over all of them.
	tracedOpsKept = 256
)

// windowsFor splits a run of the given length. With both passes the traced
// replay is added after a full measured window; alone, the layer pass spends
// half its time on an untraced baseline and half on the replay.
func windowsFor(seconds int, p pass) windows {
	s := time.Duration(seconds) * time.Second
	w := windows{warm: warmUp, measure: s, tracedWarm: tracedWarmUp, traced: min(s, maxTraced), probe: probeBudget, setups: setupReps}
	switch p {
	case passEndToEnd:
		w.tracedWarm, w.traced = 0, 0
	case passLayers:
		w.measure, w.traced, w.setups = s/2, s/2, 1
	}
	return w
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	spans []span
}

func (res *result) tally(w *window) {
	res.Attempted += len(w.samples)
	res.Failed += failures(w.samples)
}

// runWorkload sets the workload up from seed, drives it through its windows
// and returns its metrics. phase is told what the run is doing, for the
// watchdog.
func runWorkload(w workloadSpec, seed int64, win windows, p pass, outDir string, phase func(string)) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Metrics: make(map[string]metric)}
	strategy, err := engine.ParseStrategy(w.strategy)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}

	phase("set-up")
	var r *rig
	var setups []float64
	for i := 0; i < win.setups; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		if r, err = newRig(w, seed, outDir, w.durable, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { r.close() }()

	phase("reference results")
	if err := r.checkReferences(); err != nil {
		return nil, err
	}
	phase("warm-up")
	warm, err := r.drive(win.warm)
	if err != nil {
		return nil, err
	}
	res.tally(warm)
	phase("measured window")
	measured, err := r.drive(win.measure)
	if err != nil {
		return nil, err
	}
	res.tally(measured)
	firstErr := measured.firstErr
	if firstErr == nil {
		firstErr = warm.firstErr
	}
	if p&passEndToEnd != 0 {
		endToEnd(res.Metrics, measured, setups)
	}

	var probes *prober
	if p&passLayers != 0 {
		phase("serving probes")
		probes = &prober{rec: newRecorder(), outDir: outDir, budget: win.probe, metrics: res.Metrics}
		for i := 0; i < len(r.subjects) && i < probeCalls; i++ {
			ps, err := newProbeSubject(r.subjects[i], strategy)
			if err != nil {
				return nil, fmt.Errorf("probe subject: %w", err)
			}
			probes.subjects = append(probes.subjects, ps)
		}
		if probes.servingProbes(r); probes.err != nil {
			return nil, probes.err
		}
		boundaryCounters(res.Metrics, measured)
	}

	phase("final checks")
	attempted, failed, err := r.finalChecks()
	res.Attempted += attempted
	res.Failed += failed
	if err != nil && firstErr == nil {
		firstErr = err
	}

	if p&passLayers != 0 {
		phase("traced set-up")
		tracer := obs.NewCollector(1 << 20)
		tr, err := newRig(w, seed, outDir, w.durable, tracer)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		defer tr.close()
		for i, s := range tr.subjects {
			s.wantCount = r.subjects[i].wantCount
		}
		phase("traced warm-up")
		twarm, err := tr.drive(win.tracedWarm)
		if err != nil {
			return nil, err
		}
		res.tally(twarm)
		skip := len(tracer.Traces())
		phase("traced replay")
		traced, err := tr.drive(win.traced)
		if err != nil {
			return nil, err
		}
		res.tally(traced)
		if firstErr == nil {
			firstErr = traced.firstErr
		}
		tracedMetrics(res.Metrics, probes.rec, measured, traced, tracer.Traces()[skip:])

		phase("layer probes")
		probes.planProbes(strategy)
		probes.executeProbes()
		probes.writeProbes(w.serviceConfig())
		if probes.err != nil {
			return nil, probes.err
		}
		res.spans = probes.rec.spans
		if err := probes.rec.write(filepath.Join(outDir, "trace_"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	res.Correct = res.Failed == 0
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failure: %v\n", w.name, firstErr)
	}
	return res, nil
}

// endToEnd fills in what a user of the served system sees, from the untraced
// measured window: timings over its quiet slices, counts over all of it.
func endToEnd(m map[string]metric, w *window, setups []float64) {
	quiet, span := w.quiet()
	queries := durations(quiet, opQuery)
	ops := len(quiet) - failures(quiet)
	m["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups)}
	m["ops_per_s"] = metric{Value: ratio(float64(ops), span.Seconds()), Unit: "1/s", Samples: ops}
	m["query_p50_ms"] = metric{Value: median(queries), Unit: "ms", Samples: len(queries)}
	m["query_p95_ms"] = metric{Value: percentile(queries, 0.95), Unit: "ms", Samples: len(queries)}
	all := len(w.samples) - failures(w.samples)
	answered := len(durations(w.samples, opQuery))
	m["cost_tuples_per_query"] = metric{Value: ratio(float64(w.costSum), float64(answered)), Unit: "tuples", Samples: answered}
	m["alloc_kb_per_op"] = metric{Value: ratio(float64(w.allocBytes)/1024, float64(all)), Unit: "KiB", Samples: all}
	m["rss_mb"] = metric{Value: median(w.rssMiB), Unit: "MiB", Samples: len(w.rssMiB)}
}

// boundaryCounters fills in the per-layer numbers read at the service's
// boundary over the untraced window: response fields and /v1/stats deltas.
func boundaryCounters(m map[string]metric, w *window) {
	queries := durations(w.samples, opQuery)
	ingests := durations(w.samples, opIngest)
	views := durations(w.samples, opView)
	m["service.queue_wait_ms"] = metric{Value: ratio(w.queueWaitSum, float64(len(queries))), Unit: "ms", Samples: len(queries)}
	m["service.ingest_p50_ms"] = metric{Value: median(ingests), Unit: "ms", Samples: len(ingests)}
	m["service.ingest_p95_ms"] = metric{Value: percentile(ingests, 0.95), Unit: "ms", Samples: len(ingests)}
	m["service.view_read_p50_ms"] = metric{Value: median(views), Unit: "ms", Samples: len(views)}

	pc0, pc1 := w.before.PlanCache, w.after.PlanCache
	lookups := (pc1.Hits - pc0.Hits) + (pc1.Misses - pc0.Misses)
	m["plancache.hit_ratio"] = metric{Value: ratio(float64(pc1.Hits-pc0.Hits), float64(lookups)), Unit: "ratio", Samples: int(lookups)}
	m["plancache.evictions"] = metric{Value: float64(pc1.Evictions - pc0.Evictions), Unit: "count"}
	m["plancache.invalidations"] = metric{Value: float64(pc1.Invalidations - pc0.Invalidations), Unit: "count"}

	var walBytes, walAppends, snapBytes, checkpoints float64
	if s0, s1 := w.before.Store, w.after.Store; s0 != nil && s1 != nil {
		walBytes = float64(s1.WALBytes - s0.WALBytes)
		walAppends = float64(s1.WALAppends - s0.WALAppends)
		snapBytes = float64(s1.SnapshotBytes - s0.SnapshotBytes)
		checkpoints = float64(s1.Checkpoints - s0.Checkpoints)
	}
	m["store.checkpoints"] = metric{Value: checkpoints, Unit: "count"}
	m["store.wal_bytes_per_batch"] = metric{Value: ratio(walBytes, walAppends), Unit: "bytes", Samples: int(walAppends)}
	m["store.snapshot_bytes_per_wal_byte"] = metric{Value: ratio(snapBytes, walBytes), Unit: "ratio", Samples: int(walAppends)}
}

// selfTimeKinds are the span kinds of the program's tracer whose self time
// is reported, one per layer a served query passes through.
var selfTimeKinds = []obs.Kind{
	obs.KindQueue, obs.KindPlanCache, obs.KindPlan, obs.KindExecute, obs.KindStmt,
	obs.KindTrie, obs.KindEnumerate, obs.KindPipeline, obs.KindEval,
}

// tracedMetrics fills in what the traced replay shows: self time per span
// kind per query, from the span trees the program already emits, and what
// tracing costs against the untraced window. It also records each traced
// operation as a client span with the program's span tree beneath it.
func tracedMetrics(m map[string]metric, rec *recorder, untraced, traced *window, traces []*obs.Trace) {
	self := selfTimes(traces)
	for _, k := range selfTimeKinds {
		m["obs.self_ms."+string(k)] = metric{Value: ratio(self[k], float64(len(traces))), Unit: "ms", Samples: len(traces)}
	}
	// Whole-window medians: quiet slices of windows of different lengths
	// are not comparable.
	on, off := durations(traced.samples, opQuery), durations(untraced.samples, opQuery)
	m["obs.trace_overhead_ratio"] = metric{Value: ratio(median(on), median(off)) - 1, Unit: "ratio", Samples: len(on)}

	byID := make(map[string]*obs.Trace, len(traces))
	for _, t := range traces {
		byID[t.ID] = t
	}
	for i, s := range traced.samples {
		if i == tracedOpsKept {
			break
		}
		op := rec.newOp()
		end := s.start.Add(s.dur)
		id := rec.add(0, op, opNames[s.kind], "client", s.start, end)
		if t := byID[s.traceID]; t != nil {
			rec.addTree(id, op, t.Root, s.start, end)
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the q-quantile of v by the nearest-rank rule, with the
// median of an even-sized sample interpolated; 0 for an empty sample.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// procStatusMiB reads one memory line ("VmRSS:", "VmHWM:") of the process's
// status, in MiB.
func procStatusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
