package wcoj

import (
	"repro/internal/govern"
)

// executor holds one goroutine's enumeration state: one trie iterator per
// relation (over shared, read-only trie indexes), per variable the relations
// whose schemes contain it, per variable the reusable leapfrog and iterator
// scratch for that depth of the recursion, the goroutine's governor meter,
// and the output it emits. Executors are cheap — the parallel variant builds
// one per worker.
type executor struct {
	order []string
	byVar [][]int // byVar[v] = indexes of the relations containing order[v]
	iters []*trieIter
	// level[v] is the scratch slice lfs[v] intersects over; it is refilled
	// from byVar[v] on every descent because the leapfrog reorders it.
	level [][]*trieIter
	lfs   []leapfrog
	meter govern.Meter
	out   emitter
	// bindings counts the values bound per variable — the per-variable
	// leapfrog work a trace reports. nil when untraced; never shared between
	// goroutines.
	bindings []int64
}

// newExecutor builds fresh iterators over the shared tries, charging scope
// through a meter of its own and counting bindings into bindings.
func newExecutor(order []string, tries []*trieIndex, scope *govern.OpScope, bindings []int64) *executor {
	ex := &executor{
		order:    order,
		byVar:    make([][]int, len(order)),
		iters:    make([]*trieIter, len(tries)),
		level:    make([][]*trieIter, len(order)),
		lfs:      make([]leapfrog, len(order)),
		meter:    scope.Meter(),
		out:      emitter{cols: make([][]uint32, len(order))},
		bindings: bindings,
	}
	for i, t := range tries {
		ex.iters[i] = newTrieIter(t)
	}
	for v, name := range order {
		for i, t := range tries {
			if t.trie.Schema().Has(name) {
				ex.byVar[v] = append(ex.byVar[v], i)
			}
		}
		ex.level[v] = make([]*trieIter, len(ex.byVar[v]))
	}
	return ex
}

// openLevel descends every relation of byVar[v] to the level keyed by
// order[v] and returns the leapfrog over them, positioned at the first
// common key.
func (ex *executor) openLevel(v int) *leapfrog {
	level := ex.level[v]
	for i, r := range ex.byVar[v] {
		ex.iters[r].open()
		level[i] = ex.iters[r]
	}
	lf := &ex.lfs[v]
	lf.init(level)
	return lf
}

// run enumerates all extensions of binding[0:v] to full results, emitting
// the (reused) full binding — one aligned code per variable — for each.
// Invariant: when run is entered at variable v, every relation's iterator
// has exactly its attributes among order[0:v] open — so the relations of
// byVar[v] are each one open() away from the level keyed by order[v]. Every
// leapfrog step charges a zero delta to the meter, so deadlines and
// cancellation are observed during long seek streaks that emit nothing.
func (ex *executor) run(v int, binding []uint32) error {
	if v == len(ex.order) {
		return ex.emit(binding)
	}
	var err error
	for lf := ex.openLevel(v); !lf.done; lf.next() {
		if err = ex.meter.Add(0); err != nil {
			break
		}
		binding[v] = lf.key()
		if ex.bindings != nil {
			ex.bindings[v]++
		}
		if err = ex.run(v+1, binding); err != nil {
			break
		}
	}
	for _, r := range ex.byVar[v] {
		ex.iters[r].up()
	}
	return err
}

// emit charges one output tuple and appends binding to the output columns.
// Nothing is decoded.
func (ex *executor) emit(binding []uint32) error {
	if err := ex.meter.Add(1); err != nil {
		return err
	}
	for v, code := range binding {
		ex.out.cols[v] = append(ex.out.cols[v], code)
	}
	ex.out.n++
	return nil
}

// emitter is an enumeration's output: one aligned-code column per variable
// and n rows.
type emitter struct {
	cols [][]uint32
	n    int
}

// enumerate runs the full sequential join, charging each output tuple, and
// returns the emitter holding the output rows — pairwise distinct, because
// each full binding is reached once. bindings, when non-nil, receives the
// per-variable binding counts.
func enumerate(order []string, tries []*trieIndex, scope *govern.OpScope, bindings []int64) (*emitter, error) {
	ex := newExecutor(order, tries, scope, bindings)
	if err := ex.run(0, make([]uint32, len(order))); err != nil {
		return nil, err
	}
	return &ex.out, ex.meter.Close()
}
