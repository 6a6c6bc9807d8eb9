package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/ivm"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wcoj"
)

// A probe times calls into one layer's public functions on the workload's own
// data: the median of at most probeCalls calls, stopping early once the
// probe's time budget is spent.
const (
	probeCalls = 20
	// chargeBudget is large enough never to abort and small enough to turn
	// the governor's accounting on, as the served path's context does.
	chargeBudget = int64(1) << 40
)

func governed() *govern.Governor {
	return govern.New(govern.Limits{MaxTuples: chargeBudget})
}

// probeSubject is a subject with the plans and operands the probes call
// layers with, derived once outside any timed call.
type probeSubject struct {
	*subject
	ch          *hypergraph.Hypergraph // scheme in canonical edge order
	cdb         *relation.Database     // database in canonical edge order
	plan        *engine.Plan           // the served strategy's plan
	progPlan    *engine.Plan           // the program route's plan
	order       []string               // triejoin variable order
	l, r        *relation.Relation     // two relations sharing an attribute
	lb, rb      *relation.ColBlock
	result      *relation.Relation // ⋈D
	resultBlock *relation.ColBlock
	group       *shard.Group
}

func newProbeSubject(s *subject, strategy engine.Strategy) (*probeSubject, error) {
	h := hypergraph.OfScheme(s.db)
	cdb, err := s.db.Restrict(h.CanonicalOrder())
	if err != nil {
		return nil, err
	}
	p := &probeSubject{subject: s, cdb: cdb, ch: hypergraph.OfScheme(cdb)}
	if p.plan, err = engine.PlanFor(s.db, engine.Options{Strategy: strategy}); err != nil {
		return nil, err
	}
	if p.progPlan, err = engine.PlanFor(s.db, engine.Options{Strategy: engine.StrategyProgram}); err != nil {
		return nil, err
	}
	if p.progPlan.Derivation == nil {
		return nil, fmt.Errorf("%s: scheme is disconnected, Algorithm 2 derived no program", s.name)
	}
	p.order = wcoj.VariableOrder(p.ch)
	for i := 0; i < s.db.Len() && p.l == nil; i++ {
		for j := i + 1; j < s.db.Len(); j++ {
			l, r := s.db.Relation(i), s.db.Relation(j)
			if l.Schema().AttrSet().Overlaps(r.Schema().AttrSet()) {
				p.l, p.r = l, r
				p.lb, p.rb = relation.FromRelation(l), relation.FromRelation(r)
				break
			}
		}
	}
	rep, err := engine.ExecutePlan(s.db, p.plan, engine.Options{})
	if err != nil {
		return nil, err
	}
	p.result, p.resultBlock = rep.Result, relation.FromRelation(rep.Result)
	if p.group, err = shard.NewGroup(s.name, s.db, 2, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// prober runs the probes of one workload and collects their metrics.
type prober struct {
	subjects []*probeSubject
	rec      *recorder
	outDir   string
	budget   time.Duration
	metrics  map[string]metric
	// err is the first probe failure; later probes are skipped.
	err error
}

// measure runs fn up to probeCalls times (prep, untimed, before each call) and
// returns the median wall time in milliseconds. Call i works on subject i,
// round-robin, so a many-database workload is probed across its catalog. Each
// call is one recorded span in the layer's name, the part of name before the
// first dot.
func (p *prober) measure(name string, prep, fn func(s *probeSubject, i int) error) metric {
	if p.err != nil {
		return metric{}
	}
	layer, _, _ := strings.Cut(name, ".")
	var ms []float64
	began := time.Now()
	for i := 0; i < probeCalls && time.Since(began) < p.budget; i++ {
		s := p.subjects[i%len(p.subjects)]
		if prep != nil {
			if err := prep(s, i); err != nil {
				p.err = fmt.Errorf("%s: prepare call %d: %w", name, i, err)
				return metric{}
			}
		}
		start := time.Now()
		err := fn(s, i)
		end := time.Now()
		if err != nil {
			p.err = fmt.Errorf("%s: call %d: %w", name, i, err)
			return metric{}
		}
		p.rec.add(0, p.rec.newOp(), name, layer, start, end)
		ms = append(ms, float64(end.Sub(start))/float64(time.Millisecond))
	}
	return metric{Value: median(ms), Unit: "ms", Samples: len(ms)}
}

// time records measure's result as the metric of that name.
func (p *prober) time(name string, prep, fn func(s *probeSubject, i int) error) {
	p.metrics[name] = p.measure(name, prep, fn)
}

func (p *prober) count(name, unit string, values []float64) {
	p.metrics[name] = metric{Value: mean(values), Unit: unit, Samples: len(values)}
}

// servingProbes measures the service layer on the live untraced rig: the same
// query directly through Service.Query and then over HTTP, back to back so
// both calls see the same machine, and the encoding of its result.
func (p *prober) servingProbes(r *rig) {
	const name = "service.http_overhead_ms"
	var extra []float64
	began := time.Now()
	for i := 0; i < probeCalls && time.Since(began) < 2*p.budget && p.err == nil; i++ {
		s := p.subjects[i%len(p.subjects)]
		start := time.Now()
		_, err := r.svc.Query(context.Background(), service.Request{Database: s.name, Strategy: r.w.strategy})
		mid := time.Now()
		if err == nil {
			var status int
			if status, err = r.call(http.MethodPost, "/v1/query", s.queryBody, new(queryResponse)); err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
		}
		end := time.Now()
		if err != nil {
			p.err = fmt.Errorf("%s: call %d: %w", name, i, err)
			return
		}
		p.rec.add(0, p.rec.newOp(), "Service.Query", "service", start, mid)
		p.rec.add(0, p.rec.newOp(), opNames[opQuery], "service", mid, end)
		extra = append(extra, float64(end.Sub(mid)-mid.Sub(start))/float64(time.Millisecond))
	}
	p.metrics[name] = metric{Value: median(extra), Unit: "ms", Samples: len(extra)}
	p.time("service.result_encode_ms", nil, func(s *probeSubject, _ int) error {
		_, err := json.Marshal(s.result)
		return err
	})
}

// planProbes covers the layers a plan-cache miss runs.
func (p *prober) planProbes(strategy engine.Strategy) {
	p.time("engine.plan_ms", nil, func(s *probeSubject, _ int) error {
		_, err := engine.PlanFor(s.db, engine.Options{Strategy: strategy})
		return err
	})
	p.time("optimizer.search_ms", nil, func(s *probeSubject, _ int) error {
		_, err := optimizer.Optimal(optimizer.NewCatalog(s.cdb, 0), optimizer.SpaceAll)
		return err
	})
	var stmts []float64
	p.time("core.derive_ms", nil, func(s *probeSubject, _ int) error {
		d, err := core.DeriveFromTree(s.progPlan.Tree, s.ch, nil)
		if err == nil {
			stmts = append(stmts, float64(d.Program.Len()))
		}
		return err
	})
	p.count("core.program_stmts", "count", stmts)
	p.time("optimizer.sketch_collect_ms", nil, func(s *probeSubject, _ int) error {
		optimizer.CollectSketches(s.db)
		return nil
	})
	p.time("relation.json_decode_ms", nil, func(s *probeSubject, _ int) error {
		return json.Unmarshal(s.registerBody, new(registerRequest))
	})
}

// executeProbes covers the layers a plan-cache hit runs, on every route.
func (p *prober) executeProbes() {
	var charged []float64
	p.time("engine.execute_ms", nil, func(s *probeSubject, _ int) error {
		rep, err := engine.ExecutePlan(s.db, s.plan, engine.Options{Limits: govern.Limits{MaxTuples: chargeBudget}})
		if err == nil {
			charged = append(charged, float64(rep.Produced))
		}
		return err
	})
	p.count("govern.tuples_charged_per_query", "tuples", charged)
	p.time("shard.run2_ms", nil, func(s *probeSubject, _ int) error {
		_, err := shard.Run(s.group, s.plan, engine.Options{Limits: govern.Limits{MaxTuples: chargeBudget}}, shard.NewInProcess(s.group))
		return err
	})

	var generated []float64
	p.time("program.apply_ms", nil, func(s *probeSubject, _ int) error {
		res, err := s.progPlan.Derivation.Program.ApplyGoverned(s.cdb, governed())
		if err == nil {
			generated = append(generated, float64(res.Cost-s.cdb.TotalTuples()))
		}
		return err
	})
	p.count("program.tuples_generated", "tuples", generated)
	p.time("jointree.eval_columnar_ms", nil, func(s *probeSubject, _ int) error {
		_, _, err := s.progPlan.Tree.EvalColumnarGoverned(s.cdb, governed())
		return err
	})

	p.time("relation.tuple_join_ms", nil, func(s *probeSubject, _ int) error {
		_, err := relation.JoinGoverned(governed(), s.l, s.r)
		return err
	})
	p.time("relation.tuple_semijoin_ms", nil, func(s *probeSubject, _ int) error {
		_, err := relation.SemijoinGoverned(governed(), s.l, s.r)
		return err
	})
	p.time("relation.block_join_ms", nil, func(s *probeSubject, _ int) error {
		_, err := relation.JoinBlocksGoverned(governed(), s.lb, s.rb)
		return err
	})
	p.time("relation.encode_ms", nil, func(s *probeSubject, _ int) error {
		for _, rel := range s.db.Relations() {
			relation.FromRelation(rel)
		}
		return nil
	})
	p.time("relation.decode_ms", nil, func(s *probeSubject, _ int) error {
		s.resultBlock.ToRelation()
		return nil
	})

	p.time("wcoj.trie_build_ms", nil, func(s *probeSubject, _ int) error {
		for _, rel := range s.cdb.Relations() {
			if _, err := wcoj.FromColumns(rel, s.order, nil); err != nil {
				return err
			}
		}
		return nil
	})
	var trieTuples []float64
	p.time("wcoj.join_ms", nil, func(s *probeSubject, _ int) error {
		res, err := wcoj.JoinGoverned(s.cdb, s.order, governed(), 1)
		if err == nil {
			trieTuples = append(trieTuples, float64(res.TrieTuples))
		}
		return err
	})
	p.count("wcoj.trie_tuples", "tuples", trieTuples)
	join, trie := p.metrics["wcoj.join_ms"], p.metrics["wcoj.trie_build_ms"]
	p.metrics["wcoj.enumerate_ms"] = metric{Value: max(join.Value-trie.Value, 0), Unit: "ms", Samples: join.Samples}

	// The full-reducer pipeline exists only for acyclic schemes.
	all := p.subjects
	defer func() { p.subjects = all }()
	p.subjects = nil
	for _, s := range all {
		if s.ch.Acyclic() {
			p.subjects = append(p.subjects, s)
		}
	}
	if len(p.subjects) == 0 {
		p.metrics["acyclic.join_ms"] = metric{Unit: "ms"}
		return
	}
	p.time("acyclic.join_ms", nil, func(s *probeSubject, _ int) error {
		_, _, err := acyclic.JoinGoverned(s.db, governed())
		return err
	})
}

// writeProbes covers the ingest path on the first database: the store, view
// maintenance, sketch maintenance and Service.Ingest over all of them, each
// against a private copy so the probes do not disturb one another.
func (p *prober) writeProbes(cfg service.Config) {
	if p.err != nil {
		return
	}
	all := p.subjects
	defer func() { p.subjects = all }()
	s := all[0]
	p.subjects = all[:1]
	dir, err := os.MkdirTemp(p.outDir, "probe-")
	if p.err = err; err != nil {
		return
	}
	defer os.RemoveAll(dir)
	opts := store.Options{Fsync: fsyncPolicy, CheckpointEvery: checkpointEvery}

	// states[k] is the catalog after cycle k's batch: the base plus set k.
	states := make([]*relation.Database, mutationSets)
	for k := range states {
		if states[k], p.err = store.ApplyBatch(s.db, s.sets[k]); p.err != nil {
			return
		}
	}

	st, err := store.Open(dir+"/raw", opts)
	if p.err = err; err != nil {
		return
	}
	defer func() { st.Close() }()
	if p.err = st.Create(s.name, s.db); p.err != nil {
		return
	}
	cycle := 0
	apply := func(*probeSubject, int) error {
		_, err := st.Apply(s.name, s.batch(cycle))
		cycle++
		return err
	}
	p.time("store.apply_ms", nil, apply)
	p.time("store.checkpoint_ms", apply, func(*probeSubject, int) error {
		return st.Checkpoint(s.name)
	})
	p.time("store.open_recover_ms", func(*probeSubject, int) error {
		return st.Close()
	}, func(*probeSubject, int) (err error) {
		st, err = store.Open(dir+"/raw", opts)
		return err
	})

	var view *ivm.View
	p.time("ivm.compile_ms", nil, func(*probeSubject, int) (err error) {
		view, err = ivm.Compile(s.db)
		return err
	})
	p.time("ivm.rebuild_ms", nil, func(*probeSubject, int) error {
		return view.Rebuild(s.db)
	})
	p.time("ivm.apply_ms", nil, func(_ *probeSubject, i int) error {
		b := s.batch(i)
		changes := make([]ivm.Change, len(b))
		for m := range b {
			changes[m] = ivm.Change{Relation: b[m].Relation, Inserts: b[m].Inserts, Deletes: b[m].Deletes}
		}
		_, err := view.Apply(changes, nil)
		return err
	})

	sketches := optimizer.CollectSketches(s.db)
	p.time("optimizer.sketch_apply_ms", nil, func(_ *probeSubject, i int) error {
		for _, m := range s.batch(i) {
			sketches.Apply(m.Relation, m.Inserts, m.Deletes, states[i%mutationSets].Relation(m.Relation))
		}
		return nil
	})

	if p.err != nil {
		return
	}
	svc := service.New(cfg)
	sst, err := store.Open(dir+"/served", opts)
	if p.err = err; err != nil {
		return
	}
	defer svc.Close(context.Background())
	if p.err = svc.AttachStore(sst); p.err != nil {
		sst.Close()
		return
	}
	if _, p.err = svc.Register(s.name, s.db); p.err != nil {
		return
	}
	if _, p.err = svc.RegisterView(store.ViewDef{ID: viewID, Database: s.name}); p.err != nil {
		return
	}
	p.time("service.ingest_call_ms", nil, func(_ *probeSubject, i int) error {
		_, err := svc.Ingest(context.Background(), s.name, s.batch(i))
		return err
	})
}
