// Command joinrun computes the natural join of a database stored as TSV
// files using the engine facade, printing an EXPLAIN-style report and
// optionally the result.
//
// Usage:
//
//	joinrun -data r1.tsv,r2.tsv,... [-strategy name] [-timeout 30s] [-max-tuples n] [-max-intermediate n] [-trace] [-print] [-json] [-out result.tsv]
//
// Each TSV file's header names its relation's attributes (see joingen for a
// generator). The database scheme is taken from the files. Strategy names
// come from the engine's single registry (engine.StrategyNames); run
// joinrun -help for the current list rather than trusting any hand-written
// enumeration.
//
// The governance flags bound execution: -timeout aborts the join after the
// given duration, -max-tuples caps the total tuples generated by one
// execution attempt, and -max-intermediate caps any single operator's
// output. Under the default auto strategy a blown tuple budget falls
// through to the next plan of engine.DegradationLadder — the same ladder
// joind climbs — and the fallback chain appears in the report's notes; with
// an explicit strategy it aborts. Resource aborts exit with
// status 3 so scripts can tell them from usage or data errors. A negative
// limit is a usage error (exit status 2), as it is a 400 from joind.
//
// -trace records the execution's span tree — per ladder rung a "derive
// plan" span and an "execute plan" attempt span holding the "execute
// program" span and its per-statement / per-variable children, each with
// its wall time and the tuples the governor charged — and prints it after
// the report (or embeds it in the -json output). The span tuple
// totals reconcile with the report's produced count.
//
// -json replaces the EXPLAIN text with a machine-readable report (and, with
// -print, the result relation); resource aborts still exit 3 but emit
// {"error": ..., "aborted": true} on stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
)

func main() {
	data := flag.String("data", "", "comma-separated TSV files, one per relation")
	strategy := flag.String("strategy", "auto",
		"execution strategy: "+strings.Join(engine.StrategyNames(), "|"))
	timeout := flag.Duration("timeout", 0, "abort execution after this duration (0 = none)")
	maxTuples := flag.Int64("max-tuples", 0, "cap total tuples generated per execution attempt (0 = unlimited)")
	maxIntermediate := flag.Int64("max-intermediate", 0, "cap any single operator's output tuples (0 = unlimited)")
	trace := flag.Bool("trace", false, "record and print the execution's span tree")
	print := flag.Bool("print", false, "print the result relation")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of the EXPLAIN text")
	out := flag.String("out", "", "write the result as TSV to this file")
	flag.Parse()

	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *timeout < 0 || *maxTuples < 0 || *maxIntermediate < 0 {
		fmt.Fprintln(os.Stderr, "joinrun: -timeout, -max-tuples and -max-intermediate must not be negative")
		os.Exit(2)
	}
	db, err := loadDatabase(*data)
	if err != nil {
		log.Fatal(err)
	}
	strat, err := engine.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	lim := govern.Limits{
		MaxTuples:             *maxTuples,
		MaxIntermediateTuples: *maxIntermediate,
	}
	if *timeout > 0 {
		lim = lim.WithTimeout(*timeout)
	}
	opts := engine.Options{Strategy: strat, Limits: lim}
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace(*data)
		opts.Trace = tr.Root
	}
	rep, err := engine.Join(db, opts)
	if tr != nil {
		tr.Root.End()
	}
	if err != nil {
		if errors.Is(err, govern.ErrTupleBudget) || errors.Is(err, govern.ErrDeadline) ||
			errors.Is(err, govern.ErrCanceled) {
			if *jsonOut {
				writeJSON(reportJSON{Error: err.Error(), Aborted: true})
			} else {
				fmt.Fprintf(os.Stderr, "joinrun: aborted: %v\n", err)
				if tr != nil {
					fmt.Fprintln(os.Stderr)
					fmt.Fprintln(os.Stderr, tr.Format())
				}
			}
			os.Exit(3)
		}
		log.Fatal(err)
	}
	if tr != nil {
		rep.TraceID = tr.ID
	}
	if *jsonOut {
		rj := reportJSON{
			Strategy:    rep.Strategy.String(),
			TraceID:     rep.TraceID,
			Cost:        rep.Cost,
			Produced:    rep.Produced,
			ResultCount: rep.Result.Len(),
			Plan:        rep.Plan,
			Notes:       rep.Notes,
		}
		if tr != nil {
			rj.Trace = tr.Root.JSON()
		}
		if *print {
			rj.Result = rep.Result
		}
		writeJSON(rj)
	} else {
		fmt.Println(rep.Explain())
		if tr != nil {
			fmt.Println()
			fmt.Println(tr.Format())
		}
		if *print {
			fmt.Println()
			fmt.Println(rep.Result)
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Result.WriteTSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d tuples)\n", *out, rep.Result.Len())
	}
}

// reportJSON is the -json output shape: the engine report on success, or
// {"error": ..., "aborted": true} alongside exit status 3 on a resource
// abort.
type reportJSON struct {
	Strategy    string             `json:"strategy,omitempty"`
	TraceID     string             `json:"trace_id,omitempty"`
	Cost        int64              `json:"cost,omitempty"`
	Produced    int64              `json:"produced,omitempty"`
	ResultCount int                `json:"result_count,omitempty"`
	Plan        string             `json:"plan,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
	Trace       *obs.SpanJSON      `json:"trace,omitempty"`
	Result      *relation.Relation `json:"result,omitempty"`
	Error       string             `json:"error,omitempty"`
	Aborted     bool               `json:"aborted,omitempty"`
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

func loadDatabase(paths string) (*relation.Database, error) {
	var rels []*relation.Relation
	for _, path := range strings.Split(paths, ",") {
		f, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		rel, err := relation.ReadTSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		rels = append(rels, rel)
	}
	return relation.NewDatabase(rels...)
}
