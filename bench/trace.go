package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed region the benchmark recorded around a call into a layer.
// Spans of one client operation (or one probe call) share Op; Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp allots the identifier the spans of one operation share.
func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

func (r *recorder) add(parent, op int, name, layer string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// layerOfKind names the package whose work a span of the program's own
// tracer covers.
var layerOfKind = map[obs.Kind]string{
	obs.KindQuery:     "service",
	obs.KindQueue:     "service",
	obs.KindPlanCache: "plancache",
	obs.KindPlan:      "optimizer",
	obs.KindResolve:   "engine",
	obs.KindAttempt:   "engine",
	obs.KindExecute:   "engine",
	obs.KindReduce:    "engine",
	obs.KindEval:      "jointree",
	obs.KindPipeline:  "acyclic",
	obs.KindStmt:      "program",
	obs.KindTrie:      "wcoj",
	obs.KindEnumerate: "wcoj",
	obs.KindVar:       "wcoj",
}

// addTree copies a span tree of the program's tracer under parent, clamping
// each child into its parent's interval (a child ended a few nanoseconds
// after its parent still belongs to it).
func (r *recorder) addTree(parent, op int, sp *obs.Span, lo, hi time.Time) {
	start, end := sp.Start(), sp.Start().Add(sp.Wall())
	if start.Before(lo) {
		start = lo
	}
	if end.After(hi) {
		end = hi
	}
	if end.Before(start) {
		end = start
	}
	id := r.add(parent, op, sp.Name(), layerOfKind[sp.Kind()], start, end)
	for _, c := range sp.Children() {
		r.addTree(id, op, c, start, end)
	}
}

// checkNested verifies every span starts before it ends, lies inside its
// parent, and shares its parent's operation.
func checkNested(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		case s.StartNS < p.StartNS || s.EndNS > p.EndNS:
			return fmt.Errorf("span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, by span kind, each span's wall time minus the part its
// children cover, over every trace, in milliseconds.
func selfTimes(traces []*obs.Trace) map[obs.Kind]float64 {
	sums := make(map[obs.Kind]float64)
	for _, t := range traces {
		t.Root.Walk(func(sp *obs.Span, _ int) {
			self := sp.Wall()
			for _, c := range sp.Children() {
				self -= c.Wall()
			}
			if self > 0 {
				sums[sp.Kind()] += float64(self) / float64(time.Millisecond)
			}
		})
	}
	return sums
}
