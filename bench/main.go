// Command bench is the served-query benchmark: it serves joind's
// Service.Handler on loopback, drives it over HTTP/JSON from closed-loop
// clients in the same process through time-boxed windows, and reports what a
// user sees end to end (tracing off) and, from a traced replay and probes of
// each package's public functions, where that time goes layer by layer.
// See README.md; BENCHMARK.json at the repository root fixes the names.
//
// Run it from the repository root:
//
//	bash bench/run.sh                                  # all four workloads, both passes
//	bash bench/run.sh -workload sparse_wcoj -trace 0   # one workload, end-to-end metrics only
//	bash bench/run.sh -compare a.jsonl b.jsonl         # hold run set b against run set a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"
)

const (
	defaultSeed = 1992
	// procs pins GOMAXPROCS: the service's workers and the clients share the
	// sandbox's two cores.
	procs = 2
	// watchdogLimit is how long one workload may take before the process
	// gives up instead of hanging.
	watchdogLimit = 120 * time.Second
	outDir        = "bench/out"
	manifestPath  = "BENCHMARK.json"
)

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", -1, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced replay; default both")
	out := flag.String("out", "", "append each run's result to this file, one JSON object per line")
	cmp := flag.Bool("compare", false, "compare two result files: -compare a b")
	flag.Parse()

	if *cmp {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() != 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []workloadSpec{w}
	}
	p := [...]pass{passEndToEnd | passLayers, passEndToEnd, passLayers}[*trace+1]

	runtime.GOMAXPROCS(procs)
	// The GC percent stays at its default; setting it is the only way to read it.
	gcPercent := debug.SetGCPercent(100)
	debug.SetGCPercent(gcPercent)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s GOGC=%d fsync=%s checkpoint-every=%d seed=%d seconds=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gcPercent, fsyncPolicy, checkpointEvery, *seed, *seconds)

	status := 0
	for _, w := range selected {
		var phase atomic.Value
		phase.Store("start")
		watchdog := time.AfterFunc(watchdogLimit, func() {
			fmt.Fprintf(os.Stderr, "watchdog: %s still in phase %q after %v\n", w.name, phase.Load(), watchdogLimit)
			os.Exit(2)
		})
		res, err := runWorkload(w, *seed, windowsFor(*seconds, p), p, outDir, func(s string) { phase.Store(s) })
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.Trace = *trace
		if err := report(res, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !res.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

// report prints every metric by name with its unit and sample count, then
// the run's result as one JSON object on the last line, and appends the full
// result to the -out file.
func report(res *result, out string) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]valueUnit, len(names))}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-18s %-36s %16.4f %-7s n=%d\n", res.Workload, name, m.Value, m.Unit, m.Samples)
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	fmt.Printf("%-18s %-36s %16.4f %-7s n=%d\n", res.Workload, "failed_ops_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)
	if out != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

func runCompare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a b")
		return 2
	}
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := readResults(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readResults(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if broken := compare(os.Stdout, man, a, b); broken > 0 {
		fmt.Printf("%d pairings of metric and workload broke their bound\n", broken)
		return 1
	}
	return 0
}
