package program

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// One executor runs every program: statements are renamed into a
// step-dependency DAG, each value is a relation.ColBlock, and the three
// block kernels plus the leapfrog triejoin (wcoj.JoinBlocks, for multiway
// statements) do the work. The paper's programs use destructive
// assignment, so the textual statement order carries write-after-read and
// write-after-write hazards as well as true data dependencies; the executor
// removes the false hazards by renaming: every statement's result is a fresh
// version (SSA style), each operand binds to the version visible at the
// statement's program point, and only true read-after-write edges remain.
//
// With one worker the DAG is walked in statement order (a topological order
// by construction) on the calling goroutine. With more, statements whose
// edges are satisfied run concurrently on a bounded pool — in a derived
// Algorithm-2 program the per-subtree semijoin chains are mutually
// independent, so the DAG's width is roughly the number of join-tree
// branches — and each join and semijoin additionally splits its probe side
// into contiguous row ranges (relation.Parallel*BlocksGoverned).
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

// valueRef identifies the producer of one operand version: statement index
// i >= 0, or input k encoded as -(k+1).
type valueRef int

// inputRef encodes input k as a valueRef.
func inputRef(k int) valueRef { return valueRef(-(k + 1)) }

// input decodes a negative valueRef back to its input position.
func (r valueRef) input() int { return -int(r) - 1 }

// stmtNode is one statement's resolved dependencies: the producers of its
// operands, in Stmt.Reads order.
type stmtNode struct {
	reads []valueRef
}

// buildDAG renames the program into SSA form: each statement's operands are
// resolved to the defining statement (or input) of the version visible at
// its program point, and the final output version is returned. Validate must
// have accepted p already.
func (p *Program) buildDAG() (nodes []stmtNode, output valueRef) {
	lastDef := make(map[string]valueRef, len(p.Inputs)+len(p.Stmts))
	for k, name := range p.Inputs {
		lastDef[name] = inputRef(k)
	}
	nodes = make([]stmtNode, len(p.Stmts))
	for i, s := range p.Stmts {
		names := s.Reads()
		reads := make([]valueRef, len(names))
		for k, name := range names {
			reads[k] = lastDef[name]
		}
		nodes[i] = stmtNode{reads: reads}
		lastDef[s.Head] = valueRef(i)
	}
	return nodes, lastDef[p.Output]
}

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
// means GOMAXPROCS): ready statements run concurrently and joins and
// semijoins probe in parallel row ranges. The Result — output rows and their
// order, §2.3 cost, and trace — is identical to Apply's, and the charges and
// abort semantics are ApplyGoverned's at every worker count; only wall-clock
// work and the per-step Wall timings differ. A nil governor runs ungoverned.
func (p *Program) ApplyParallelGoverned(db *relation.Database, g *govern.Governor, workers int) (*Result, error) {
	return p.execute(db, g, workers)
}

// encodeInput fetches one input relation's resident columnar encoding,
// building it if this is the snapshot's first reader. It is a variable so
// the executor tests can count encodings.
var encodeInput = (*relation.Relation).Block

// execute is the executor behind the three Apply entry points: fetch the
// resident block of every input some statement reads, run, return Output
// block-backed.
func (p *Program) execute(db *relation.Database, g *govern.Governor, workers int) (*Result, error) {
	if db.Len() != len(p.Inputs) {
		return nil, fmt.Errorf("program: database has %d relations, program has %d inputs",
			db.Len(), len(p.Inputs))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nodes, outRef := p.buildDAG()
	// Encode up front, so Step.Wall and the statement spans time kernels only.
	inputs := make([]*relation.ColBlock, len(p.Inputs))
	for _, n := range nodes {
		for _, ref := range n.reads {
			if ref < 0 && inputs[ref.input()] == nil {
				inputs[ref.input()] = encodeInput(db.Relation(ref.input()))
			}
		}
	}
	vals, steps, err := p.run(nodes, inputs, g, workers)
	if err != nil {
		return nil, err
	}
	res := &Result{Cost: db.TotalTuples() + Generated(steps), Trace: steps}
	if outRef < 0 {
		res.Output = db.Relation(outRef.input())
	} else {
		res.Output = vals[outRef].ToRelation()
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
	nodes, _ := p.buildDAG()
	for _, n := range nodes {
		for _, ref := range n.reads {
			if ref < 0 && inputs[ref.input()] == nil {
				return nil, nil, fmt.Errorf("program: input %q is read but has no block", p.Inputs[ref.input()])
			}
		}
	}
	vals, steps, err := p.run(nodes, inputs, g, workers)
	if err != nil {
		return nil, nil, err
	}
	bound := make(map[string]*relation.ColBlock, len(p.Inputs)+len(p.Stmts))
	for k, name := range p.Inputs {
		bound[name] = inputs[k]
	}
	for i, s := range p.Stmts {
		bound[s.Head] = vals[i]
	}
	return bound, steps, nil
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

// run is the one executor: it runs every statement of the DAG over the
// input blocks, in statement order with one worker (0 means GOMAXPROCS) or
// on the scheduler with more, and returns each statement's block and step.
func (p *Program) run(nodes []stmtNode, inputs []*relation.ColBlock, g *govern.Governor, workers int) ([]*relation.ColBlock, []Step, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	vals := make([]*relation.ColBlock, len(p.Stmts))
	resolve := func(ref valueRef) *relation.ColBlock {
		if ref < 0 {
			return inputs[ref.input()]
		}
		return vals[ref]
	}
	steps := make([]Step, len(p.Stmts))
	runStmt := func(i int) error {
		s := p.Stmts[i]
		fail := func(err error) error {
			return fmt.Errorf("program: statement %d (%s): %w", i+1, s, err)
		}
		if _, err := g.Begin("program.Stmt"); err != nil {
			return fail(err)
		}
		// Concurrent statements open sibling spans on the shared parent;
		// Span.Child is safe for that.
		span := beginStmtSpan(g, s)
		start := time.Now()
		reads := nodes[i].reads
		var out *relation.ColBlock
		var notes []string
		var err error
		switch s.Op {
		case OpProject:
			out, err = relation.ProjectBlocksGoverned(g, resolve(reads[0]), s.Proj)
		case OpJoin:
			out, err = relation.ParallelJoinBlocksGoverned(g, resolve(reads[0]), resolve(reads[1]), workers)
		case OpSemijoin:
			out, err = relation.ParallelSemijoinBlocksGoverned(g, resolve(reads[0]), resolve(reads[1]), workers)
		case OpMultiway:
			blocks := make([]*relation.ColBlock, len(reads))
			for k, ref := range reads {
				blocks[k] = resolve(ref)
			}
			var res *wcoj.Result
			if res, err = wcoj.JoinBlocks(blocks, s.Order, g, workers, span.sp); err == nil {
				out, notes = res.Block, res.Notes()
			}
		}
		if err != nil {
			span.finish(0, err)
			return fail(err)
		}
		if s.Op == OpMultiway {
			span.finish(0, nil) // the trie and enumeration spans hold its charges
		} else {
			span.finish(out.Len(), nil)
		}
		vals[i] = out
		steps[i] = Step{Stmt: s, Schema: out.Schema(), Size: out.Len(), Wall: time.Since(start), Notes: notes}
		return nil
	}
	if workers == 1 {
		for i := range p.Stmts {
			if err := runStmt(i); err != nil {
				return nil, nil, err
			}
		}
	} else if err := schedule(nodes, workers, runStmt); err != nil {
		return nil, nil, err
	}
	return vals, steps, nil
}

// schedule runs every statement of the DAG on a pool of up to workers
// goroutines, releasing a statement once the statements it reads have
// finished. The first error stops the pool and is returned.
func schedule(nodes []stmtNode, workers int, runStmt func(i int) error) error {
	if len(nodes) == 0 {
		return nil
	}
	// Dependency bookkeeping: indegree counts distinct statement (not input)
	// dependencies; dependents is the reverse adjacency.
	indegree := make([]atomic.Int32, len(nodes))
	dependents := make([][]int, len(nodes))
	for i, n := range nodes {
		deps := 0
		for k, ref := range n.reads {
			if ref >= 0 && !slices.Contains(n.reads[:k], ref) {
				dependents[ref] = append(dependents[ref], i)
				deps++
			}
		}
		indegree[i].Store(int32(deps))
	}

	ready := make(chan int, len(nodes))
	quit := make(chan struct{})
	var (
		errOnce   sync.Once
		firstErr  error
		remaining atomic.Int32
	)
	remaining.Store(int32(len(nodes)))
	for i := range nodes {
		if indegree[i].Load() == 0 {
			ready <- i
		}
	}

	if workers > len(nodes) {
		workers = len(nodes)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				case i, ok := <-ready:
					if !ok {
						return
					}
					if err := runStmt(i); err != nil {
						errOnce.Do(func() {
							firstErr = err
							close(quit)
						})
						return
					}
					// Release dependents; close ready once the last
					// statement finishes, so idle workers drain out.
					for _, j := range dependents[i] {
						if indegree[j].Add(-1) == 0 {
							ready <- j
						}
					}
					if remaining.Add(-1) == 0 {
						close(ready)
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// CriticalPathLen returns the number of statements on the longest chain of
// true data dependencies — the lower bound on parallel execution's depth.
// Width (statements ÷ critical path) is the parallelism the DAG scheduler
// can exploit.
func (p *Program) CriticalPathLen() int {
	if err := p.Validate(); err != nil {
		return len(p.Stmts)
	}
	nodes, _ := p.buildDAG()
	depth := make([]int, len(p.Stmts))
	longest := 0
	for i, n := range nodes {
		d := 0
		for _, ref := range n.reads {
			if ref >= 0 {
				d = max(d, depth[ref])
			}
		}
		depth[i] = d + 1
		if depth[i] > longest {
			longest = depth[i]
		}
	}
	return longest
}
