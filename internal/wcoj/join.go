package wcoj

import (
	"repro/internal/govern"
)

// mergeRatio bounds how lopsided two ranges may be for the intersection to
// merge them: within it a merge's |a|+|b| comparisons beat |a| probes of
// O(log |b|/|a|) each; beyond it the shorter range drives and probes.
const mergeRatio = 8

// operand is one relation's trie level keyed by one variable: the level's
// aligned node keys, how its child range is read from the bound parent
// position, and the cursor of the current intersection. Node positions are
// kept per relation level in executor.pos, at index at; up indexes the
// parent level's bound position, or is -1 at level 0, whose range is the
// whole level.
type operand struct {
	keys   []uint32 // the level's aligned node keys
	start  []uint32 // the parent level's child offsets; nil at level 0
	succ   []uint32 // level 0's successor table; nil below
	up, at int
	lo, hi int // the open range, lo advancing as the intersection runs
}

// seek advances op's cursor to the first key ≥ key — op.keys[op.lo] must
// be < key — and reports whether it stays within the range: one load
// through the successor table at level 0, a gallop below.
func (op *operand) seek(key uint32) bool {
	if op.succ != nil {
		op.lo = int(op.succ[key])
	} else {
		op.lo = gallop(op.keys, op.lo, op.hi, key)
	}
	return op.lo < op.hi
}

// executor holds one goroutine's enumeration state over shared, read-only
// trie indexes: per variable the operands of the relations whose schemes
// contain it, per relation level the node position bound there, the
// goroutine's governor meter, and the output it emits. Executors are cheap —
// the parallel variant builds one per worker.
type executor struct {
	ops [][]operand // ops[v] = the levels keyed by order[v], one per relation
	pos []int
	// top, set by topKeys, makes run record each binding of the first
	// variable with its operands' positions in tops instead of recursing.
	top   bool
	tops  []uint32
	meter govern.Meter
	out   emitter
	// bindings counts the values bound per variable — the per-variable
	// intersection work a trace reports. nil when untraced; never shared
	// between goroutines.
	bindings []int64
}

// newExecutor lays out the operands over the shared tries, charging scope
// through a meter of its own and counting bindings into bindings.
func newExecutor(order []string, tries []*trieIndex, scope *govern.OpScope, bindings []int64) *executor {
	ex := &executor{
		ops:      make([][]operand, len(order)),
		meter:    scope.Meter(),
		out:      emitter{cols: make([][]uint32, len(order))},
		bindings: bindings,
	}
	base := make([]int, len(tries))
	for i, t := range tries {
		base[i] = len(ex.pos)
		ex.pos = append(ex.pos, make([]int, t.trie.Schema().Len())...)
	}
	for v, name := range order {
		for i, t := range tries {
			d, ok := t.trie.Schema().Position(name)
			if !ok {
				continue
			}
			op := operand{keys: t.keys[d], up: -1, at: base[i] + d}
			if d == 0 {
				op.succ = t.succ
			} else {
				op.start, op.up = t.trie.Start(d-1), base[i]+d-1
			}
			ex.ops[v] = append(ex.ops[v], op)
		}
	}
	return ex
}

// run enumerates all extensions of binding[0:v] to full results, emitting
// the (reused) full binding — one aligned code per variable — for each.
// Every relation has its levels keyed by order[0:v] bound in pos, so each
// operand of order[v] opens its range from two offsets of its parent, and
// the ranges are intersected by the cheapest rule that keeps the
// Õ(shortest range) bound: one range is walked, two within mergeRatio of
// each other are merged, and otherwise the shortest drives and the others
// probe forward for each of its keys (intersect).
func (ex *executor) run(v int, binding []uint32) error {
	if v == len(ex.ops) {
		if ex.top {
			ex.collect(binding[0])
			return nil
		}
		return ex.emit(binding)
	}
	ops := ex.ops[v]
	drv := 0
	for i := range ops {
		op := &ops[i]
		if op.up < 0 {
			op.lo, op.hi = 0, len(op.keys)
		} else {
			p := ex.pos[op.up]
			op.lo, op.hi = int(op.start[p]), int(op.start[p+1])
		}
		if op.hi-op.lo < ops[drv].hi-ops[drv].lo {
			drv = i
		}
	}
	short := ops[drv].hi - ops[drv].lo
	switch {
	case len(ops) == 1:
		op := &ops[0]
		for p := op.lo; p < op.hi; p++ {
			ex.pos[op.at] = p
			if err := ex.bind(v, op.keys[p], binding); err != nil {
				return err
			}
		}
		return nil
	case len(ops) == 2 && ops[1-drv].hi-ops[1-drv].lo <= mergeRatio*short:
		return ex.merge(v, &ops[0], &ops[1], binding)
	}
	return ex.intersect(v, ops, drv, binding)
}

// merge binds each key common to a's and b's ranges in one branch-free
// pass: both cursors advance past the smaller key, both on a match.
func (ex *executor) merge(v int, a, b *operand, binding []uint32) error {
	ak, bk := a.keys[:a.hi], b.keys[:b.hi]
	i, j := a.lo, b.lo
	for i < len(ak) && j < len(bk) {
		x, y := ak[i], bk[j]
		if x == y {
			ex.pos[a.at], ex.pos[b.at] = i, j
			if err := ex.bind(v, x, binding); err != nil {
				return err
			}
		}
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return nil
}

// intersect binds each key common to every operand's range: the driver
// steps through its range, and for each key every other operand seeks
// forward to it; an operand that lands past it names the next candidate,
// to which the driver seeks in turn. The driver visits at most its own
// range, and the seeks of each other operand advance one cursor through
// its range, galloping, so the pass costs O(k·|shortest|·log(|longest| /
// |shortest|)) — the per-variable bound worst-case optimality rests on.
func (ex *executor) intersect(v int, ops []operand, drv int, binding []uint32) error {
	d := &ops[drv]
	for d.lo < d.hi {
		key, hit := d.keys[d.lo], true
		for i := range ops {
			op := &ops[i]
			if i == drv || op.keys[op.lo] == key {
				continue
			}
			if op.keys[op.lo] < key && !op.seek(key) {
				return nil
			}
			if k := op.keys[op.lo]; k != key {
				key, hit = k, false
				break
			}
		}
		if !hit {
			if !d.seek(key) {
				return nil
			}
			continue
		}
		for i := range ops {
			ex.pos[ops[i].at] = ops[i].lo
		}
		if err := ex.bind(v, key, binding); err != nil {
			return err
		}
		d.lo++
	}
	return nil
}

// bind charges a zero delta to the meter — so deadlines and cancellation
// are observed during long streaks of bindings that emit nothing — counts
// the binding of order[v] to key, and recurses on the next variable.
func (ex *executor) bind(v int, key uint32, binding []uint32) error {
	if err := ex.meter.Add(0); err != nil {
		return err
	}
	binding[v] = key
	if ex.bindings != nil {
		ex.bindings[v]++
	}
	return ex.run(v+1, binding)
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag read.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
