package program

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// One executor runs every program: its statements run in textual order on
// the calling goroutine with destructive assignment — one environment binds
// each name to a relation.ColBlock — and the three block kernels plus the
// leapfrog triejoin (wcoj.JoinBlocks, for multiway statements) do the work.
// Workers parallelize inside a statement only: each join and semijoin splits
// its probe side into contiguous row ranges (relation.Parallel*BlocksGoverned)
// and a multiway join partitions its outermost variable.
//
// Every input some statement reads is dictionary-encoded exactly once,
// before the first statement; kernels share dictionaries by reference down
// the chain, so nothing is re-encoded, and the output is returned as a
// block-backed relation whose rows are decoded only if a caller reads them.
// Execute is the same run for callers that hold blocks already and want
// blocks back — every name's final binding, nothing decoded. Resource
// governance cannot tell the representation or the worker count: every
// statement begins the "program.Stmt" governor site, the kernels charge the
// tuple-map operators' totals under their op names with one meter call per
// probe row — a local count that settles against the shared counters only
// near a budget and every CheckEvery rows — and an abort returns the typed
// govern error with no partial Result.

// Apply executes the program on db, whose relations bind positionally to the
// program's inputs. Statements assign destructively; the input relations are
// never mutated — a semijoin into an input name rebinds the name.
func (p *Program) Apply(db *relation.Database) (*Result, error) {
	return p.execute(db, nil, 1)
}

// ApplyGoverned is Apply under a governor: every statement head charges its
// tuples against the budgets, the governor's failpoint hook fires at each
// statement boundary (site "program.Stmt"), and cancellation aborts between
// or inside statements with the governor's typed error. On abort no partial
// Result is returned.
func (p *Program) ApplyGoverned(db *relation.Database, g *govern.Governor) (*Result, error) {
	return p.execute(db, g, 1)
}

// ApplyParallelGoverned is ApplyGoverned with up to workers goroutines (0
// means GOMAXPROCS) inside each statement: joins and semijoins probe in
// parallel row ranges and a multiway join partitions its outermost variable,
// while the statements still run one after another in textual order. The
// Result — output rows and their order, §2.3 cost, and trace — is identical
// to Apply's, and the charges and abort semantics are ApplyGoverned's at
// every worker count; only wall-clock work and the per-step Wall timings
// differ. A nil governor runs ungoverned.
func (p *Program) ApplyParallelGoverned(db *relation.Database, g *govern.Governor, workers int) (*Result, error) {
	return p.execute(db, g, workers)
}

// encodeInput fetches one input relation's resident columnar encoding,
// building it if this is the snapshot's first reader. It is a variable so
// the executor tests can count encodings.
var encodeInput = (*relation.Relation).Block

// inputUse walks the statements once and reports, per input, whether some
// statement reads it before a statement reassigns its name, and the position
// of the input Output names when no statement assigns it (-1 otherwise).
func (p *Program) inputUse() (read []bool, output int) {
	read = make([]bool, len(p.Inputs))
	assigned := make([]bool, len(p.Inputs))
	for _, s := range p.Stmts {
		for _, name := range s.Reads() {
			if k := slices.Index(p.Inputs, name); k >= 0 && !assigned[k] {
				read[k] = true
			}
		}
		if k := slices.Index(p.Inputs, s.Head); k >= 0 {
			assigned[k] = true
		}
	}
	if k := slices.Index(p.Inputs, p.Output); k >= 0 && !assigned[k] {
		return read, k
	}
	return read, -1
}

// execute is the executor behind the three Apply entry points: fetch the
// resident block of every input some statement reads, run, return Output
// block-backed — or, when Output names an input no statement assigned, that
// input itself.
func (p *Program) execute(db *relation.Database, g *govern.Governor, workers int) (*Result, error) {
	if db.Len() != len(p.Inputs) {
		return nil, fmt.Errorf("program: database has %d relations, program has %d inputs",
			db.Len(), len(p.Inputs))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	read, output := p.inputUse()
	// Encode up front, so Step.Wall and the statement spans time kernels only.
	inputs := make([]*relation.ColBlock, len(p.Inputs))
	for k, r := range read {
		if r {
			inputs[k] = encodeInput(db.Relation(k))
		}
	}
	env, steps, err := p.run(inputs, g, workers)
	if err != nil {
		return nil, err
	}
	res := &Result{Cost: db.TotalTuples() + Generated(steps), Trace: steps}
	if output >= 0 {
		res.Output = db.Relation(output)
	} else {
		res.Output = env[p.Output].ToRelation()
	}
	return res, nil
}

// Execute is the executor's lower entry point, for callers that keep working
// on blocks: it runs p over inputs that are already encoded — inputs[k]
// binds p.Inputs[k] and may be nil only when no statement reads it — and
// returns the block every input and variable name is bound to after the
// last statement, plus the per-statement trace. Nothing is decoded. Charges,
// spans, abort semantics and worker handling are the Apply entry points'.
func (p *Program) Execute(inputs []*relation.ColBlock, g *govern.Governor, workers int) (map[string]*relation.ColBlock, []Step, error) {
	if len(inputs) != len(p.Inputs) {
		return nil, nil, fmt.Errorf("program: %d input blocks, program has %d inputs", len(inputs), len(p.Inputs))
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	read, _ := p.inputUse()
	for k, r := range read {
		if r && inputs[k] == nil {
			return nil, nil, fmt.Errorf("program: input %q is read but has no block", p.Inputs[k])
		}
	}
	return p.run(inputs, g, workers)
}

// Generated returns the tuples a trace's statements generated — Σ head
// cardinalities, which is cost(P(D)) minus the inputs.
func Generated(trace []Step) int {
	total := 0
	for i := range trace {
		total += trace[i].Size
	}
	return total
}

// run is the one executor: it runs every statement in textual order over
// the input blocks, with up to workers goroutines (0 means GOMAXPROCS)
// inside each kernel, and returns every name's final block and the steps.
func (p *Program) run(inputs []*relation.ColBlock, g *govern.Governor, workers int) (map[string]*relation.ColBlock, []Step, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	env := make(map[string]*relation.ColBlock, len(p.Inputs)+len(p.Stmts))
	for k, name := range p.Inputs {
		env[name] = inputs[k]
	}
	steps := make([]Step, len(p.Stmts))
	for i, s := range p.Stmts {
		if _, err := g.Begin("program.Stmt"); err != nil {
			return nil, nil, fmt.Errorf("program: statement %d (%s): %w", i+1, s, err)
		}
		span := beginStmtSpan(g, s)
		start := time.Now()
		var out *relation.ColBlock
		var notes []string
		var err error
		switch s.Op {
		case OpProject:
			out, err = relation.ProjectBlocksGoverned(g, env[s.Arg1], s.Proj)
		case OpJoin:
			out, err = relation.ParallelJoinBlocksGoverned(g, env[s.Arg1], env[s.Arg2], workers)
		case OpSemijoin:
			out, err = relation.ParallelSemijoinBlocksGoverned(g, env[s.Arg1], env[s.Arg2], workers)
		case OpMultiway:
			blocks := make([]*relation.ColBlock, len(s.Args))
			for k, name := range s.Args {
				blocks[k] = env[name]
			}
			var res *wcoj.Result
			if res, err = wcoj.JoinBlocks(blocks, s.Order, g, workers, span.sp); err == nil {
				out, notes = res.Block, res.Notes()
			}
		}
		if err != nil {
			span.finish(0, err)
			return nil, nil, fmt.Errorf("program: statement %d (%s): %w", i+1, s, err)
		}
		if s.Op == OpMultiway {
			span.finish(0, nil) // the trie and enumeration spans hold its charges
		} else {
			span.finish(out.Len(), nil)
		}
		env[s.Head] = out
		steps[i] = Step{Stmt: s, Schema: out.Schema(), Size: out.Len(), Wall: time.Since(start), Notes: notes}
	}
	return env, steps, nil
}
