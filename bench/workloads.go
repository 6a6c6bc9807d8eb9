package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workload"
)

// A workload is one traffic mix against one generated catalog. The sizes are
// chosen so that the layer named in its reason does most of the work and so
// that ten seconds give at least 200 samples of every operation type; the
// README records the measured split.
type workloadSpec struct {
	name string
	why  string
	// clients is the number of closed-loop clients (never more than the two
	// cores the service's workers also run on).
	clients int
	// strategy is the strategy name the queries ask for.
	strategy string
	// includeResult asks for the result tuples in every query response.
	includeResult bool
	// planCacheSize overrides joind's default plan cache (0 keeps it).
	planCacheSize int
	// durable attaches a WAL-backed store, registers a view, and makes the
	// client follow the ingest → query ×3 → view-read script.
	durable bool
	// generate draws the catalog from rng.
	generate func(rng *rand.Rand) ([]*relation.Database, error)
}

// Knobs of the durable workload and of the store probes, pinned here so both
// sides of any comparison flush and checkpoint alike.
const (
	fsyncPolicy     = store.FsyncAlways
	checkpointEvery = 64
	viewID          = "v"
	viewMaxResult   = 1000
	// Each ingest is 3 mutations × 4 inserts, deleting the previous cycle's
	// inserts so the catalog's size is stationary.
	mutationsPerBatch = 3
	insertsPerMut     = 4
	// mutationSets is how many disjoint insert sets the script cycles through.
	mutationSets    = 8
	queriesPerCycle = 3
)

func triangle(nodes, edges int) func(*rand.Rand) ([]*relation.Database, error) {
	return func(rng *rand.Rand) ([]*relation.Database, error) {
		db, err := workload.TriangleSpec{Nodes: nodes, Edges: edges}.TriangleDatabase(rng)
		if err != nil {
			return nil, err
		}
		return []*relation.Database{db}, nil
	}
}

// churnSchemeSeed fixes plan_churn's schemes. In this system the scheme is
// the query, and like the triangle of the other workloads it is part of the
// workload's definition: the seed draws the tuples, never the query. (Drawn
// from the seed, the scheme mix alone moved every metric by 15–40% from one
// seed to the next, wider than any bound.)
const churnSchemeSeed = 1992

// churnDatabases draws n small databases over n distinct random schemes, so
// a plan cache smaller than n never holds the plan a query needs. Three in
// four schemes are cyclic (auto takes the program route and a miss pays
// optimizer search plus Algorithms 1 and 2); every fourth is acyclic (the
// search-free full-reducer pipeline), so both auto routes are served and the
// median query is a cyclic one.
func churnDatabases(n int) func(*rand.Rand) ([]*relation.Database, error) {
	return func(rng *rand.Rand) ([]*relation.Database, error) {
		spec := workload.RandomSchemeSpec{Relations: 6, Attrs: 7, MaxArity: 3, Connected: true}
		schemes := rand.New(rand.NewSource(churnSchemeSeed))
		seen := make(map[string]bool, n)
		dbs := make([]*relation.Database, 0, n)
		for len(dbs) < n {
			h, err := workload.RandomScheme(schemes, spec)
			if err != nil {
				return nil, err
			}
			// Equal fingerprints share one cached plan; keep schemes distinct
			// so every database is its own cache entry.
			if wantAcyclic := len(dbs)%4 == 3; h.Acyclic() != wantAcyclic || seen[h.Fingerprint()] {
				continue
			}
			seen[h.Fingerprint()] = true
			db, err := workload.RandomDatabase(rng, h, 40, 6)
			if err != nil {
				return nil, err
			}
			dbs = append(dbs, db)
		}
		return dbs, nil
	}
}

var workloads = []workloadSpec{
	{
		name:     "cyclic_program",
		why:      "dense triangle on the Algorithm 1+2 program route: program and tuple-map relation operators do the work, plan cache always hits",
		clients:  2,
		strategy: "program",
		generate: triangle(90, 1600),
	},
	{
		name:     "sparse_wcoj",
		why:      "sparse triangle on leapfrog triejoin, input far larger than output: per-query leaf encode and trie build dominate, program route bypassed",
		clients:  2,
		strategy: "wcoj",
		generate: triangle(2000, 16000),
	},
	{
		name:          "plan_churn",
		why:           "48 small random schemes against a 16-entry plan cache with results returned: optimizer search, Algorithms 1/2, cache misses and HTTP/JSON dominate",
		clients:       2,
		strategy:      "auto",
		includeResult: true,
		planCacheSize: 16,
		generate:      churnDatabases(48),
	},
	{
		name:     "ingest_view_cycle",
		why:      "one client ingesting into a durable store with a view, then querying and reading the view: WAL fsync, checkpoints, delta maintenance and plan invalidation beside reads",
		clients:  1,
		strategy: "auto",
		durable:  true,
		generate: triangle(60, 900),
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// subject is one generated database with everything the clients and the
// checks need to know about it.
type subject struct {
	name string
	db   *relation.Database
	// registerBody is the POST /v1/databases body that registers it.
	registerBody []byte
	// queryBody is the POST /v1/query body the clients send for it.
	queryBody []byte
	// wantCount is |⋈D| computed by a route the served strategy does not use.
	wantCount int
	// sets are the disjoint insert sets of the ingest script (durable
	// workloads and the write probes; first subject only): sets[k][m] is
	// mutation m of set k.
	sets [][]store.Mutation
}

type registerRequest struct {
	Name      string             `json:"name"`
	Relations *relation.Database `json:"relations"`
}

type queryRequest struct {
	Database      string `json:"database"`
	Strategy      string `json:"strategy"`
	IncludeResult bool   `json:"include_result,omitempty"`
}

// generateSubjects draws the workload's catalog from seed and renders the
// request bodies. Everything the service will ever see is produced here.
func generateSubjects(w workloadSpec, seed int64) ([]*subject, error) {
	rng := rand.New(rand.NewSource(seed))
	dbs, err := w.generate(rng)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	subjects := make([]*subject, len(dbs))
	for i, db := range dbs {
		s := &subject{name: fmt.Sprintf("db%02d", i), db: db}
		if s.registerBody, err = json.Marshal(registerRequest{Name: s.name, Relations: db}); err != nil {
			return nil, err
		}
		if s.queryBody, err = json.Marshal(queryRequest{Database: s.name, Strategy: w.strategy, IncludeResult: w.includeResult}); err != nil {
			return nil, err
		}
		subjects[i] = s
	}
	// Only the first database is ever ingested into.
	subjects[0].sets = mutationSetsFor(dbs[0], rng)
	return subjects, nil
}

// mutationSetsFor draws mutationSets disjoint sets of tuples absent from db:
// insertsPerMut tuples for each of the first mutationsPerBatch relations.
// Values are sampled from the relation's own columns so inserts join with
// existing tuples; a relation whose domain is exhausted gets fresh values.
func mutationSetsFor(db *relation.Database, rng *rand.Rand) [][]store.Mutation {
	nrel := min(mutationsPerBatch, db.Len())
	sets := make([][]store.Mutation, mutationSets)
	for k := range sets {
		sets[k] = make([]store.Mutation, nrel)
	}
	for m := 0; m < nrel; m++ {
		rel := db.Relation(m)
		rows, arity := rel.Rows(), rel.Schema().Len()
		taken := relation.New(rel.Schema())
		fresh := int64(1_000_000)
		for k := range sets {
			ins := make([]relation.Tuple, 0, insertsPerMut)
			for attempt := 0; len(ins) < insertsPerMut; attempt++ {
				t := make(relation.Tuple, arity)
				for c := range t {
					if attempt < 64 && len(rows) > 0 {
						t[c] = rows[rng.Intn(len(rows))][c]
					} else {
						t[c] = relation.Int(fresh)
						fresh++
					}
				}
				if rel.Contains(t) || taken.Contains(t) {
					continue
				}
				taken.MustInsert(t)
				ins = append(ins, t)
			}
			sets[k][m] = store.Mutation{Relation: m, Inserts: ins}
		}
	}
	return sets
}

// batch returns cycle k's ingest batch: insert set k, delete set k-1.
func (s *subject) batch(k int) store.Batch {
	cur := s.sets[k%mutationSets]
	b := make(store.Batch, len(cur))
	for m := range cur {
		b[m] = store.Mutation{Relation: cur[m].Relation, Inserts: cur[m].Inserts}
		if k > 0 {
			b[m].Deletes = s.sets[(k-1)%mutationSets][m].Inserts
		}
	}
	return b
}

// referenceCount computes |⋈D| by a route the served strategy does not take:
// leapfrog triejoin for the program and auto routes, the derived program for
// the triejoin route.
func referenceCount(db *relation.Database, served string) (int, error) {
	ref := engine.StrategyWCOJ
	if served == "wcoj" {
		ref = engine.StrategyProgram
	}
	rep, err := engine.Join(db, engine.Options{Strategy: ref})
	if err != nil {
		return 0, fmt.Errorf("reference %s join: %w", ref, err)
	}
	return rep.Result.Len(), nil
}

func (w workloadSpec) serviceConfig() service.Config {
	return service.Config{PlanCacheSize: w.planCacheSize}
}
