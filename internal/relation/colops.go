package relation

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/govern"
)

// Vectorized batch kernels over ColBlocks: join, semijoin, and projection
// operating on dictionary codes instead of tuples. Each kernel mirrors its
// tuple-map counterpart in ops.go exactly — same output schema, same
// build/probe side choice, same governor op name, and the same Visit call
// per probe row — so the governor cannot tell the two apart: charge totals,
// MaxIntermediateTuples boundaries, and abort points coincide. The
// differential gauntlet in columnardiff_test.go enforces this.
//
// Matching across blocks works by code remapping: for every common column,
// the probe side's sorted dictionary is merged once against the build
// side's (O(|dictL| + |dictR|)), yielding probe-code → build-code (or -1
// when the value is absent and the row can never match). After that, all
// per-row work is uint32 comparisons and integer-keyed map operations; with
// one or two join columns the codes pack collision-free into a single
// uint64 key, so the probe loop performs no allocation at all.

// JoinBlocksGoverned computes the natural join l ⋈ r over column blocks.
// The output schema is l's columns followed by r's columns not in l, and
// every output column shares its source block's dictionary by reference —
// joining never copies or re-encodes values.
func JoinBlocksGoverned(g *govern.Governor, l, r *ColBlock) (*ColBlock, error) {
	return ParallelJoinBlocksGoverned(g, l, r, 1)
}

// ParallelJoinBlocksGoverned is JoinBlocksGoverned probing with up to
// workers goroutines: the build table is hashed once, the probe side is cut
// into contiguous row ranges, every range charges its per-row deltas into
// the operator's one scope, and the range outputs concatenate in range
// order. Output rows, their order, the charged total, and the budget-abort
// boundary therefore equal the single-range run exactly. workers <= 1 and
// inputs below the parallel threshold probe as one range on the calling
// goroutine.
func ParallelJoinBlocksGoverned(g *govern.Governor, l, r *ColBlock, workers int) (*ColBlock, error) {
	scope, err := g.Begin("relation.Join")
	if err != nil {
		return nil, err
	}
	workers = rangeWorkers(workers, l.n+r.n)
	common := l.schema.AttrSet().Intersect(r.schema.AttrSet())
	var rOnlyPos []int
	for i, a := range r.schema.Attrs() {
		if !l.schema.Has(a) {
			rOnlyPos = append(rOnlyPos, i)
		}
	}
	outSchema := joinSchema(l.schema, r.schema)
	newOut := func() *ColBlock { return newJoinedBlock(outSchema, l, r, rOnlyPos) }

	if common.IsEmpty() {
		return runBlockRanges(scope, l.n, workers, newOut, func(out *ColBlock, lo, hi int, charge rowCharger) error {
			for i := lo; i < hi; i++ {
				for j := 0; j < r.n; j++ {
					out.appendJoined(l, r, i, j, rOnlyPos)
					if err := charge.row(1); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}

	// The smaller side is hashed and the other probes it, as in
	// hashJoinInto; output rows read (l row, r-only columns) either way.
	lPos, _ := l.schema.Positions(common)
	rPos, _ := r.schema.Positions(common)
	buildSide, buildPos, probeSide, probePos := l, lPos, r, rPos
	probeIsL := l.n > r.n
	if probeIsL {
		buildSide, buildPos, probeSide, probePos = r, rPos, l, lPos
	}
	build := buildCodeHash(buildSide, buildPos)
	probe := keyCols(probeSide, probePos)
	remaps := remapCols(probeSide, probePos, buildSide, buildPos)
	return runBlockRanges(scope, probeSide.n, workers, newOut, func(out *ColBlock, lo, hi int, charge rowCharger) error {
		ht := build.reader()
		for p := lo; p < hi; p++ {
			matches := ht.lookup(probe, remaps, p)
			for _, b := range matches {
				if probeIsL {
					out.appendJoined(l, r, p, int(b), rOnlyPos)
				} else {
					out.appendJoined(l, r, int(b), p, rOnlyPos)
				}
			}
			if err := charge.row(len(matches)); err != nil {
				return err
			}
		}
		return nil
	})
}

// SemijoinBlocksGoverned computes l ⋉ r over column blocks: the rows of l
// with at least one match in r. The output shares l's schema and
// dictionaries; only code vectors are written.
func SemijoinBlocksGoverned(g *govern.Governor, l, r *ColBlock) (*ColBlock, error) {
	return ParallelSemijoinBlocksGoverned(g, l, r, 1)
}

// ParallelSemijoinBlocksGoverned is SemijoinBlocksGoverned scanning with up
// to workers goroutines over contiguous row ranges, under the same contract
// as ParallelJoinBlocksGoverned: identical rows, row order, charges, and
// abort boundary at every worker count.
func ParallelSemijoinBlocksGoverned(g *govern.Governor, l, r *ColBlock, workers int) (*ColBlock, error) {
	scope, err := g.Begin("relation.Semijoin")
	if err != nil {
		return nil, err
	}
	workers = rangeWorkers(workers, l.n+r.n)
	common := l.schema.AttrSet().Intersect(r.schema.AttrSet())
	newOut := func() *ColBlock { return newSelectedBlock(l) }
	// emit appends the rows of l in [lo, hi) that keep accepts, charging one
	// call per row.
	emit := func(keep func(i int) bool) func(*ColBlock, int, int, rowCharger) error {
		return func(out *ColBlock, lo, hi int, charge rowCharger) error {
			for i := lo; i < hi; i++ {
				emitted := 0
				if keep(i) {
					out.appendFrom(l, i)
					emitted = 1
				}
				if err := charge.row(emitted); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if common.IsEmpty() {
		if r.n == 0 {
			return newOut(), nil
		}
		return runBlockRanges(scope, l.n, workers, newOut, emit(func(int) bool { return true }))
	}
	lPos, _ := l.schema.Positions(common)
	rPos, _ := r.schema.Positions(common)
	lCols, rCols := keyCols(l, lPos), keyCols(r, rPos)
	if l.n <= r.n {
		// Hash the smaller (left) side: number l's distinct keys, scan r
		// marking which have support, then emit the supported l rows — the
		// same |l|-bounded-memory shape as the sequential operator. Every
		// range of the r scan marks its own bit vector (the key table is
		// read-only by then); the vectors are OR-ed before the emit pass.
		keys := newCodeSet(len(lPos), l.n)
		keyOf := make([]int32, l.n)
		for i := range keyOf {
			keyOf[i], _ = keys.put(lCols, i)
		}
		remaps := remapCols(r, rPos, l, lPos)
		bounds := splitRanges(r.n, workers)
		marks := make([][]bool, len(bounds)-1)
		err := runRanges(scope, bounds, func(k, lo, hi int, charge rowCharger) error {
			set, marked := keys.reader(), make([]bool, keys.len())
			marks[k] = marked
			for j := lo; j < hi; j++ {
				if id := set.find(rCols, remaps, j); id >= 0 {
					marked[id] = true
				}
				if err := charge.row(0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		supported := marks[0]
		for _, m := range marks[1:] {
			for id, ok := range m {
				supported[id] = supported[id] || ok
			}
		}
		return runBlockRanges(scope, l.n, workers, newOut, emit(func(i int) bool { return supported[keyOf[i]] }))
	}
	keys := newCodeSet(len(rPos), r.n)
	for j := 0; j < r.n; j++ {
		keys.put(rCols, j)
	}
	remaps := remapCols(l, lPos, r, rPos)
	return runBlockRanges(scope, l.n, workers, newOut, func(out *ColBlock, lo, hi int, charge rowCharger) error {
		set := keys.reader()
		return emit(func(i int) bool { return set.find(lCols, remaps, i) >= 0 })(out, lo, hi, charge)
	})
}

// ProjectBlocksGoverned computes π_attrs(b) over a column block,
// deduplicating on packed dictionary codes. Output columns share the
// source columns' dictionaries.
func ProjectBlocksGoverned(g *govern.Governor, b *ColBlock, attrs AttrSet) (*ColBlock, error) {
	if !b.schema.AttrSet().ContainsAll(attrs) {
		return nil, fmt.Errorf("relation: projection attributes %s not all in schema %s",
			attrs, b.schema)
	}
	scope, err := g.Begin("relation.Project")
	if err != nil {
		return nil, err
	}
	pos, _ := b.schema.Positions(attrs)
	out := &ColBlock{schema: MustSchema(attrs...), cols: make([]column, len(pos))}
	for k, p := range pos {
		out.cols[k].dict = b.cols[p].dict
	}
	cols := keyCols(b, pos)
	seen := newCodeSet(len(pos), b.n)
	for i := 0; i < b.n; i++ {
		if _, fresh := seen.put(cols, i); fresh {
			for k, p := range pos {
				out.cols[k].codes = append(out.cols[k].codes, b.cols[p].codes[i])
			}
			out.n++
		}
		if err := scope.Visit(out.n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parallelMinInput is the combined input size below which the kernels probe
// as one range; goroutine and concatenation overhead dominate on small
// inputs. Tests that must exercise the range split on small inputs override
// it with SetParallelThreshold.
var parallelMinInput = 4096

// SetParallelThreshold overrides the combined-input-size cutoff below which
// the kernels probe as one range, and returns a function restoring the
// previous value. n <= 0 forces the range split on every input. It mutates
// package state and is not synchronized against in-flight kernels — call it
// from test setup, not concurrently with executions.
func SetParallelThreshold(n int) (restore func()) {
	prev := parallelMinInput
	parallelMinInput = n
	return func() { parallelMinInput = prev }
}

// errParallelStopped is the internal sentinel a range worker returns when it
// bails out because a sibling already failed; it never escapes the kernels.
var errParallelStopped = errors.New("relation: parallel worker stopped")

// parallelRun executes fn(w, stop) for each w in [0, n) on n goroutines and
// returns the first real error. A worker that fails sets the stop flag;
// siblings poll it via their charge calls and bail with errParallelStopped,
// which is swallowed here.
func parallelRun(n int, fn func(w int, stop *atomic.Bool) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		stop  atomic.Bool
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := fn(w, &stop); err != nil && !errors.Is(err, errParallelStopped) {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				stop.Store(true)
			}
		}(w)
	}
	wg.Wait()
	return first
}

// rangeWorkers resolves a kernel's worker count: 0 means GOMAXPROCS, and
// inputs below the parallel threshold (SetParallelThreshold) run as one
// range, where goroutine and concatenation overhead would dominate.
func rangeWorkers(workers, inputRows int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if inputRows < parallelMinInput {
		return 1
	}
	return workers
}

// splitRanges cuts [0, n) into at most workers contiguous near-equal
// non-empty ranges, returned as their bounds (range k is
// [bounds[k], bounds[k+1])). There is always at least one range, empty when
// n is 0.
func splitRanges(n, workers int) []int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, workers+1)
	for k := 1; k <= workers; k++ {
		bounds[k] = n * k / workers
	}
	return bounds
}

// rowCharger is one range's handle on the operator's governor scope.
type rowCharger struct {
	scope *govern.OpScope
	stop  *atomic.Bool // set when a sibling range failed; nil in a single-range run
}

// row is one probe row's governor call: it charges the row's emitted tuples
// into the operator's scope (one Add per row, the cadence Visit has in the
// tuple-map operators) and, in a multi-range run, bails out first when a
// sibling range already failed.
func (c rowCharger) row(emitted int) error {
	if c.stop != nil && c.stop.Load() {
		return errParallelStopped
	}
	return c.scope.Add(emitted)
}

// runRanges runs body over every range of bounds: a single range inline on
// the calling goroutine charging scope itself, several on one goroutine each
// under parallelRun's first-error-wins protocol, each charging a fork of
// scope — same counters, same budget checks, but rows that emit nothing stay
// off the shared cache line.
func runRanges(scope *govern.OpScope, bounds []int, body func(k, lo, hi int, charge rowCharger) error) error {
	if len(bounds) == 2 {
		return body(0, bounds[0], bounds[1], rowCharger{scope: scope})
	}
	return parallelRun(len(bounds)-1, func(k int, stop *atomic.Bool) error {
		return body(k, bounds[k], bounds[k+1], rowCharger{scope: scope.Fork(), stop: stop})
	})
}

// runBlockRanges runs a kernel's probe loop over [0, n) as up to workers
// ranges, each appending to its own output block from newOut, and
// concatenates the range outputs in range order.
func runBlockRanges(scope *govern.OpScope, n, workers int, newOut func() *ColBlock, body func(out *ColBlock, lo, hi int, charge rowCharger) error) (*ColBlock, error) {
	bounds := splitRanges(n, workers)
	parts := make([]*ColBlock, len(bounds)-1)
	err := runRanges(scope, bounds, func(k, lo, hi int, charge rowCharger) error {
		parts[k] = newOut()
		return body(parts[k], lo, hi, charge)
	})
	if err != nil {
		return nil, err
	}
	return concatBlocks(parts), nil
}

// concatBlocks appends the parts' rows in order. The parts come from one
// newOut, so they agree on schema and dictionaries.
func concatBlocks(parts []*ColBlock) *ColBlock {
	out := parts[0]
	if len(parts) == 1 {
		return out
	}
	total := 0
	for _, p := range parts {
		total += p.n
	}
	for c := range out.cols {
		codes := make([]uint32, 0, total)
		for _, p := range parts {
			codes = append(codes, p.cols[c].codes...)
		}
		out.cols[c].codes = codes
	}
	out.n = total
	return out
}

// newJoinedBlock prepares the output block of a join: l's columns then r's
// rOnlyPos columns, each sharing its source dictionary.
func newJoinedBlock(schema *Schema, l, r *ColBlock, rOnlyPos []int) *ColBlock {
	out := &ColBlock{schema: schema, cols: make([]column, len(l.cols)+len(rOnlyPos))}
	for c := range l.cols {
		out.cols[c].dict = l.cols[c].dict
	}
	for k, p := range rOnlyPos {
		out.cols[len(l.cols)+k].dict = r.cols[p].dict
	}
	return out
}

// appendJoined appends the output row (l row i, r row j's rOnlyPos columns).
func (out *ColBlock) appendJoined(l, r *ColBlock, i, j int, rOnlyPos []int) {
	nl := len(l.cols)
	for c := 0; c < nl; c++ {
		out.cols[c].codes = append(out.cols[c].codes, l.cols[c].codes[i])
	}
	for k, p := range rOnlyPos {
		out.cols[nl+k].codes = append(out.cols[nl+k].codes, r.cols[p].codes[j])
	}
	out.n++
}

// newSelectedBlock prepares an output block selecting rows of src: same
// schema, shared dictionaries, empty code vectors.
func newSelectedBlock(src *ColBlock) *ColBlock {
	out := &ColBlock{schema: src.schema, cols: make([]column, len(src.cols))}
	for c := range src.cols {
		out.cols[c].dict = src.cols[c].dict
	}
	return out
}

// appendFrom appends row i of src.
func (out *ColBlock) appendFrom(src *ColBlock, i int) {
	for c := range src.cols {
		out.cols[c].codes = append(out.cols[c].codes, src.cols[c].codes[i])
	}
	out.n++
}

// remapCols builds, for every key column, probe-code → build-code (or -1
// when the probe value is absent from the build dictionary). One sorted
// merge per column; after this, cross-block matching is pure integer work.
func remapCols(from *ColBlock, fromPos []int, to *ColBlock, toPos []int) [][]int32 {
	out := make([][]int32, len(fromPos))
	for k := range fromPos {
		out[k] = remapDict(from.cols[fromPos[k]].dict, to.cols[toPos[k]].dict)
	}
	return out
}

// remapDict merges two sorted dictionaries: out[i] is from[i]'s code in to,
// or -1.
func remapDict(from, to []Value) []int32 {
	out := make([]int32, len(from))
	j := 0
	for i, v := range from {
		for j < len(to) && to[j].Compare(v) < 0 {
			j++
		}
		if j < len(to) && to[j].Equal(v) {
			out[i] = int32(j)
		} else {
			out[i] = -1
		}
	}
	return out
}

// packedKeyAt packs row i's codes over the key columns into one uint64 —
// collision-free for up to two columns (each code is 32 bits). remaps maps
// each column's codes into the build side's code space; nil means the row's
// codes are already in that space. ok is false when a code has no image, in
// which case the row cannot match anything.
func packedKeyAt(cols [][]uint32, remaps [][]int32, i int) (key uint64, ok bool) {
	for k, codes := range cols {
		c := codes[i]
		if remaps != nil {
			m := remaps[k][c]
			if m < 0 {
				return 0, false
			}
			c = uint32(m)
		}
		key = key<<32 | uint64(c)
	}
	return key, true
}

// wideKeyAt is packedKeyAt for three or more key columns: the codes are
// appended big-endian to buf (reset first), yielding an injective byte key.
func wideKeyAt(buf []byte, cols [][]uint32, remaps [][]int32, i int) ([]byte, bool) {
	buf = buf[:0]
	for k, codes := range cols {
		c := codes[i]
		if remaps != nil {
			m := remaps[k][c]
			if m < 0 {
				return buf, false
			}
			c = uint32(m)
		}
		buf = append(buf, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return buf, true
}

// keyCols gathers the code columns of b at the given positions.
func keyCols(b *ColBlock, pos []int) [][]uint32 {
	cols := make([][]uint32, len(pos))
	for k, p := range pos {
		cols[k] = b.cols[p].codes
	}
	return cols
}

// codeHash is the join build table: build-row indexes keyed by packed codes
// (uint64 map up to two key columns, byte-string map beyond).
type codeHash struct {
	packed map[uint64][]int32
	wide   map[string][]int32
	buf    []byte
}

// buildCodeHash indexes b's rows on the key columns at pos.
func buildCodeHash(b *ColBlock, pos []int) *codeHash {
	h := &codeHash{}
	cols := keyCols(b, pos)
	if len(pos) <= 2 {
		h.packed = make(map[uint64][]int32, b.n)
		for i := 0; i < b.n; i++ {
			k, _ := packedKeyAt(cols, nil, i)
			h.packed[k] = append(h.packed[k], int32(i))
		}
		return h
	}
	h.wide = make(map[string][]int32, b.n)
	for i := 0; i < b.n; i++ {
		h.buf, _ = wideKeyAt(h.buf, cols, nil, i)
		h.wide[string(h.buf)] = append(h.wide[string(h.buf)], int32(i))
	}
	return h
}

// reader returns a view of the table for one probing goroutine: the maps
// are shared (read-only once built), the wide-key scratch buffer is private.
func (h *codeHash) reader() *codeHash {
	return &codeHash{packed: h.packed, wide: h.wide}
}

// lookup returns the build rows matching probe row i, read from the probe
// side's code columns and translated through remaps. A probe whose codes
// have no image in the build dictionaries returns nil without touching the
// map. With packed keys the whole call is allocation-free.
func (h *codeHash) lookup(probeCols [][]uint32, remaps [][]int32, i int) []int32 {
	if h.packed != nil {
		k, ok := packedKeyAt(probeCols, remaps, i)
		if !ok {
			return nil
		}
		return h.packed[k]
	}
	buf, ok := wideKeyAt(h.buf, probeCols, remaps, i)
	h.buf = buf
	if !ok {
		return nil
	}
	return h.wide[string(buf)]
}

// codeSet numbers the distinct packed code keys it is given, densely from 0
// in first-seen order: the semijoin key table (whose ids index the support
// bit vectors) and the projection dedup table.
type codeSet struct {
	packed map[uint64]int32
	wide   map[string]int32
	buf    []byte
}

// newCodeSet prepares an empty set over ncols key columns, sized for n rows.
func newCodeSet(ncols, n int) *codeSet {
	s := &codeSet{}
	if ncols <= 2 {
		s.packed = make(map[uint64]int32, n)
	} else {
		s.wide = make(map[string]int32, n)
	}
	return s
}

// len returns the number of distinct keys.
func (s *codeSet) len() int { return len(s.packed) + len(s.wide) }

// reader is codeHash.reader for a finished set: shared maps, private
// scratch buffer, find only.
func (s *codeSet) reader() *codeSet {
	return &codeSet{packed: s.packed, wide: s.wide}
}

// put returns the id of row i's key, inserting it when absent; fresh
// reports whether this call inserted it (the projection dedup step).
func (s *codeSet) put(cols [][]uint32, i int) (id int32, fresh bool) {
	if s.packed != nil {
		k, _ := packedKeyAt(cols, nil, i)
		if id, ok := s.packed[k]; ok {
			return id, false
		}
		id = int32(len(s.packed))
		s.packed[k] = id
		return id, true
	}
	s.buf, _ = wideKeyAt(s.buf, cols, nil, i)
	if id, ok := s.wide[string(s.buf)]; ok {
		return id, false
	}
	id = int32(len(s.wide))
	s.wide[string(s.buf)] = id
	return id, true
}

// find returns the id of row i's key, read from another block's code
// columns and translated through remaps, or -1 when the key is absent or a
// code has no image in the key space (such a row cannot match).
func (s *codeSet) find(cols [][]uint32, remaps [][]int32, i int) int32 {
	if s.packed != nil {
		if k, ok := packedKeyAt(cols, remaps, i); ok {
			if id, present := s.packed[k]; present {
				return id
			}
		}
		return -1
	}
	buf, ok := wideKeyAt(s.buf, cols, remaps, i)
	s.buf = buf
	if ok {
		if id, present := s.wide[string(buf)]; present {
			return id
		}
	}
	return -1
}
