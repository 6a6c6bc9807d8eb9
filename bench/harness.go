package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

// maxClients is the most closed-loop clients any workload runs: the sandbox
// has two cores and the service's workers share them with the clients.
const maxClients = 2

// rig is one served instance of a workload: the service with joind's default
// configuration, its durable store when the workload has one, and a loopback
// HTTP server in front of Service.Handler.
type rig struct {
	w        workloadSpec
	subjects []*subject
	svc      *service.Service
	storeDir string // "" when no store is attached
	srv      *httptest.Server
	http     *http.Client
	clients  []*client
}

// newRig generates the workload's inputs from seed and brings the service up
// with them: open the store, register every database (and the view) over
// HTTP, start the server. Its wall time is the setup_s metric.
func newRig(w workloadSpec, seed int64, outDir string, durable bool, tracer *obs.Collector) (r *rig, err error) {
	subjects, err := generateSubjects(w, seed)
	if err != nil {
		return nil, err
	}
	cfg := w.serviceConfig()
	if tracer != nil {
		cfg.Tracer = tracer
	}
	r = &rig{w: w, subjects: subjects, svc: service.New(cfg)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if durable {
		if r.storeDir, err = os.MkdirTemp(outDir, "store-"); err != nil {
			return nil, err
		}
		st, err := store.Open(r.storeDir, store.Options{Fsync: fsyncPolicy, CheckpointEvery: checkpointEvery})
		if err != nil {
			return nil, err
		}
		if err := r.svc.AttachStore(st); err != nil {
			return nil, err
		}
	}
	r.srv = httptest.NewServer(r.svc.Handler())
	r.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxClients}}
	for _, s := range subjects {
		if status, err := r.call(http.MethodPost, "/v1/databases", s.registerBody, nil); err != nil || status != http.StatusCreated {
			return nil, fmt.Errorf("register %s: status %d: %v", s.name, status, err)
		}
	}
	if durable {
		body := fmt.Sprintf(`{"id":%q,"database":%q}`, viewID, subjects[0].name)
		if status, err := r.call(http.MethodPost, "/v1/views", []byte(body), nil); err != nil || status != http.StatusCreated {
			return nil, fmt.Errorf("register view: status %d: %v", status, err)
		}
	}
	r.clients = make([]*client, w.clients)
	for i := range r.clients {
		r.clients[i] = &client{id: i, rig: r}
	}
	return r, nil
}

// close stops the server, drains and closes the service (which checkpoints
// and closes the store) and removes the store directory.
func (r *rig) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.http != nil {
		r.http.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.svc.Close(ctx) // best effort: the directory is removed next
	if r.storeDir != "" {
		_ = os.RemoveAll(r.storeDir)
	}
}

// call makes one HTTP round trip and decodes the JSON response into out
// (nil = discard).
func (r *rig) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, r.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	// Drain so the connection is reused.
	if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

func (r *rig) stats() (service.Stats, error) {
	var s service.Stats
	status, err := r.call(http.MethodGet, "/v1/stats", nil, &s)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return s, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return s, nil
}

// checkReferences computes every subject's reference |⋈D| by a second route.
func (r *rig) checkReferences() error {
	for _, s := range r.subjects {
		n, err := referenceCount(s.db, r.w.strategy)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		s.wantCount = n
	}
	return nil
}

type opKind int

const (
	opQuery opKind = iota
	opIngest
	opView
	opKinds
)

var opNames = [opKinds]string{"POST /v1/query", "POST /v1/ingest", "GET /v1/views/" + viewID}

// sample is one completed client operation.
type sample struct {
	kind    opKind
	start   time.Time
	dur     time.Duration
	failed  bool
	traceID string
}

// Response bodies, reduced to the fields the checks read.
type tuplesOnly struct {
	Tuples []json.RawMessage `json:"tuples"`
}

type queryResponse struct {
	TraceID     string      `json:"trace_id"`
	Cost        int64       `json:"cost"`
	ResultCount int         `json:"result_count"`
	QueueWaitMS float64     `json:"queue_wait_ms"`
	Result      *tuplesOnly `json:"result"`
}

type ingestMutation struct {
	Relation int              `json:"relation"`
	Inserts  []relation.Tuple `json:"inserts,omitempty"`
	Deletes  []relation.Tuple `json:"deletes,omitempty"`
}

type ingestRequest struct {
	Database  string           `json:"database"`
	Mutations []ingestMutation `json:"mutations"`
}

type viewResponse struct {
	ResultCount int         `json:"result_count"`
	Stale       bool        `json:"stale"`
	Result      *tuplesOnly `json:"result"`
}

func ingestBody(database string, b store.Batch) []byte {
	req := ingestRequest{Database: database, Mutations: make([]ingestMutation, len(b))}
	for i, m := range b {
		req.Mutations[i] = ingestMutation{Relation: m.Relation, Inserts: m.Inserts, Deletes: m.Deletes}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // tuples of ints and strings always marshal
	}
	return body
}

// client is one closed-loop caller: it sends its next request only after the
// previous one completed. Its script position survives across windows, so a
// warm-up and the window after it are one continuous run.
type client struct {
	id  int
	rig *rig
	// next counts operations issued; cycle counts completed ingest cycles.
	next, cycle int
	// cycleCount is the result count the current cycle's first query saw;
	// the other queries and the view read must agree with it.
	cycleCount int
	// lastTuples is the catalog size the last acknowledged ingest reported.
	lastTuples int

	// Per-window accumulators, reset by drive.
	samples      []sample
	costSum      int64
	queueWaitSum float64
	firstErr     error
}

func (c *client) fail(format string, args ...any) bool {
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf(format, args...)
	}
	return false
}

// step issues the client's next scripted operation and records it.
func (c *client) step() {
	r := c.rig
	kind, sub := opQuery, r.subjects[0]
	// pos is the place in the durable script: ingest, the queries, view read.
	pos := c.next % (1 + queriesPerCycle + 1)
	if r.w.durable {
		switch pos {
		case 0:
			kind = opIngest
		case 1 + queriesPerCycle:
			kind = opView
		}
	} else {
		// Clients walk disjoint shares of the catalog round-robin.
		share := (len(r.subjects) + len(r.clients) - 1) / len(r.clients)
		sub = r.subjects[(c.id+(c.next%share)*len(r.clients))%len(r.subjects)]
	}
	c.next++
	s := sample{kind: kind, start: time.Now()}
	var ok bool
	switch kind {
	case opQuery:
		ok = c.query(sub, pos == 1, &s)
	case opIngest:
		ok = c.ingest(sub)
	case opView:
		ok = c.readView()
		c.cycle++
	}
	s.dur = time.Since(s.start)
	s.failed = !ok
	c.samples = append(c.samples, s)
}

// query sends sub's query. first marks a cycle's first query, whose count
// the cycle's other queries and its view read (maintained by ivm, a second
// route) must confirm: the catalog moves every cycle.
func (c *client) query(sub *subject, first bool, s *sample) bool {
	var resp queryResponse
	status, err := c.rig.call(http.MethodPost, "/v1/query", sub.queryBody, &resp)
	if err != nil || status != http.StatusOK {
		return c.fail("query %s: status %d: %v", sub.name, status, err)
	}
	s.traceID = resp.TraceID
	c.costSum += resp.Cost
	c.queueWaitSum += resp.QueueWaitMS
	want := sub.wantCount
	if c.rig.w.durable {
		if first {
			c.cycleCount = resp.ResultCount
		}
		want = c.cycleCount
	}
	if resp.ResultCount != want {
		return c.fail("query %s: result_count %d, want %d", sub.name, resp.ResultCount, want)
	}
	if c.rig.w.includeResult && (resp.Result == nil || len(resp.Result.Tuples) != want) {
		return c.fail("query %s: result body does not hold %d tuples", sub.name, want)
	}
	return true
}

func (c *client) ingest(sub *subject) bool {
	batch := sub.batch(c.cycle)
	var resp service.IngestResult
	status, err := c.rig.call(http.MethodPost, "/v1/ingest", ingestBody(sub.name, batch), &resp)
	if err != nil || status != http.StatusOK {
		return c.fail("ingest cycle %d: status %d: %v", c.cycle, status, err)
	}
	c.lastTuples = resp.Tuples
	inserted := len(batch) * insertsPerMut
	deleted := inserted
	if c.cycle == 0 {
		deleted = 0
	}
	if resp.Inserted != inserted || resp.Deleted != deleted || resp.Tuples != sub.db.TotalTuples()+inserted || resp.ViewsMaintained != 1 {
		return c.fail("ingest cycle %d: inserted %d deleted %d tuples %d views %d", c.cycle, resp.Inserted, resp.Deleted, resp.Tuples, resp.ViewsMaintained)
	}
	return true
}

func (c *client) readView() bool {
	var resp viewResponse
	path := fmt.Sprintf("/v1/views/%s?max_result=%d", viewID, viewMaxResult)
	status, err := c.rig.call(http.MethodGet, path, nil, &resp)
	if err != nil || status != http.StatusOK {
		return c.fail("view read: status %d: %v", status, err)
	}
	if resp.Stale || resp.ResultCount != c.cycleCount {
		return c.fail("view read: stale %v, result_count %d, queries saw %d", resp.Stale, resp.ResultCount, c.cycleCount)
	}
	if resp.Result == nil || len(resp.Result.Tuples) != min(resp.ResultCount, viewMaxResult) {
		return c.fail("view read: result body does not hold min(%d, %d) tuples", resp.ResultCount, viewMaxResult)
	}
	return true
}

// window is what one drive call observed.
type window struct {
	start        time.Time
	length       time.Duration // as asked for; in-flight operations run past it
	samples      []sample
	costSum      int64
	queueWaitSum float64
	allocBytes   uint64
	rssMiB       []float64 // resident set, sampled at every slice boundary
	before       service.Stats
	after        service.Stats
	firstErr     error
}

// The sandbox's speed moves by a quarter for seconds at a time (a fully busy
// process gets 36 to 61 queries out of the same CPU seconds), so a window is
// cut into slices and timings are taken over the quietest of them: the
// quietSlices slices with the lowest median query latency. Interference only
// ever slows a slice down, so the quiet slices are the reproducible ones.
const (
	slicesPerWindow = 20
	quietSlices     = 5
)

// drive runs every client for d and returns what they observed. Operations
// in flight at the deadline complete and count.
func (r *rig) drive(d time.Duration) (*window, error) {
	before, err := r.stats()
	if err != nil {
		return nil, err
	}
	for _, c := range r.clients {
		c.samples, c.costSum, c.queueWaitSum, c.firstErr = nil, 0, 0, nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	win := &window{start: time.Now(), length: d, before: before}
	deadline := win.start.Add(d)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step()
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(max(d/slicesPerWindow, time.Millisecond))
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-tick.C:
			win.rssMiB = append(win.rssMiB, procStatusMiB("VmRSS:"))
		case <-done:
			running = false
		}
	}
	runtime.ReadMemStats(&ms)
	win.allocBytes = ms.TotalAlloc - alloc0
	if win.after, err = r.stats(); err != nil {
		return nil, err
	}
	for _, c := range r.clients {
		win.samples = append(win.samples, c.samples...)
		win.costSum += c.costSum
		win.queueWaitSum += c.queueWaitSum
		if win.firstErr == nil {
			win.firstErr = c.firstErr
		}
	}
	return win, nil
}

// quiet returns the operations that started in the window's quietest slices
// and the time those slices cover.
func (w *window) quiet() ([]sample, time.Duration) {
	sliceLen := w.length / slicesPerWindow
	if sliceLen <= 0 {
		return nil, 0
	}
	type slice struct {
		samples []sample
		median  float64
	}
	slices := make([]slice, slicesPerWindow)
	for _, s := range w.samples {
		if i := int(s.start.Sub(w.start) / sliceLen); i < slicesPerWindow {
			slices[i].samples = append(slices[i].samples, s)
		}
	}
	ranked := slices[:0]
	for _, sl := range slices {
		if q := durations(sl.samples, opQuery); len(q) > 0 {
			sl.median = median(q)
			ranked = append(ranked, sl)
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].median < ranked[j].median })
	ranked = ranked[:min(quietSlices, len(ranked))]
	var kept []sample
	for _, sl := range ranked {
		kept = append(kept, sl.samples...)
	}
	return kept, time.Duration(len(ranked)) * sliceLen
}

// durations returns the latencies, in milliseconds, of the successful
// operations of one kind.
func durations(samples []sample, kind opKind) []float64 {
	var ms []float64
	for _, s := range samples {
		if s.kind == kind && !s.failed {
			ms = append(ms, float64(s.dur)/float64(time.Millisecond))
		}
	}
	return ms
}

func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

// finalChecks runs the durable workload's end-of-run assertions: the view
// equals a fresh query's result, and after closing the store and opening the
// same directory again the recovered catalog holds exactly the tuples the
// last acknowledged ingest reported. It returns the number of failed checks.
func (r *rig) finalChecks() (attempted, failed int, err error) {
	if !r.w.durable {
		return 0, 0, nil
	}
	sub, c := r.subjects[0], r.clients[0]
	attempted = 2
	_, viewResult, err := r.svc.ViewResult(viewID)
	if err != nil {
		return attempted, attempted, err
	}
	rep, err := r.svc.Query(context.Background(), service.Request{Database: sub.name, Strategy: "wcoj"})
	if err != nil {
		return attempted, attempted, err
	}
	if !viewResult.Equal(rep.Result) {
		failed++
		err = fmt.Errorf("view holds %d tuples, a fresh triejoin query %d, and they differ", viewResult.Len(), rep.Result.Len())
	}
	st := r.svc.Store()
	if cerr := st.Close(); cerr != nil {
		return attempted, attempted, cerr
	}
	reopened, oerr := store.Open(r.storeDir, st.Options())
	if oerr != nil {
		return attempted, attempted, oerr
	}
	defer reopened.Close()
	db, cerr := reopened.Current(sub.name)
	if cerr != nil {
		return attempted, attempted, cerr
	}
	if c.cycle > 0 && db.TotalTuples() != c.lastTuples {
		failed++
		err = fmt.Errorf("recovered %d tuples, last acknowledged ingest reported %d", db.TotalTuples(), c.lastTuples)
	}
	return attempted, failed, err
}
