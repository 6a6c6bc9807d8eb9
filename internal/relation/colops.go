package relation

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/govern"
)

// Vectorized batch kernels over ColBlocks: join, semijoin, and projection
// operating on dictionary codes instead of tuples. Each kernel mirrors its
// tuple-map counterpart in ops.go exactly — same output schema, same
// build/probe side choice, same governor op name, and the same charge per
// probe row, counted on a govern.Meter that settles before a budget could be
// crossed — so the governor cannot tell the two apart: charge totals,
// MaxIntermediateTuples boundaries and whether a budget aborts coincide,
// and so does the abort point on one range. The differential gauntlet in
// columnardiff_test.go enforces this.
//
// Matching across blocks works by code remapping: for every common column,
// the probe side's sorted dictionary is merged once against the build
// side's (O(|dictL| + |dictR|)), yielding probe-code → build-code (or -1
// when the value is absent and the row can never match). After that, all
// per-row work is integer arithmetic on codes. The side being indexed picks
// its table's shape from its own size (directSpace): when its key columns'
// dictionaries span few enough keys, a key is the mixed-radix number of its
// codes and the table is a plain array over the key space; otherwise keys
// pack into a uint64 map (one or two columns) or a byte-string map (three
// or more). Either way the probe loop allocates nothing.

// JoinBlocksGoverned computes the natural join l ⋈ r over column blocks.
// The output schema is l's columns followed by r's columns not in l, and
// every output column shares its source block's dictionary by reference —
// joining never copies or re-encodes values.
func JoinBlocksGoverned(g *govern.Governor, l, r *ColBlock) (*ColBlock, error) {
	return ParallelJoinBlocksGoverned(g, l, r, 1)
}

// ParallelJoinBlocksGoverned is JoinBlocksGoverned probing with up to
// workers goroutines: the build table is built once, the probe side is cut
// into contiguous row ranges, every range charges its per-row deltas through
// its own meter on the operator's one scope, and the ranges write their
// output rows in range order. Output rows, their order, the charged total,
// and whether a budget aborts therefore equal the single-range run's; only
// an abort's reported count may run past the single-range one, by what the
// sibling ranges held unsettled. workers <= 1 and inputs below the parallel
// threshold probe as one range on the calling goroutine.
func ParallelJoinBlocksGoverned(g *govern.Governor, l, r *ColBlock, workers int) (*ColBlock, error) {
	scope, err := g.Begin("relation.Join")
	if err != nil {
		return nil, err
	}
	workers = rangeWorkers(workers, l.n+r.n)
	common := l.schema.AttrSet().Intersect(r.schema.AttrSet())
	schema := joinSchema(l.schema, r.schema)
	if common.IsEmpty() {
		// The Cartesian product: every l row pairs with every r row, charged
		// one pair at a time as the tuple-map join does.
		all := make([]int32, r.n)
		for j := range all {
			all[j] = int32(j)
		}
		return countThenFill(scope, workers, l.n, schema, joinSources(l, r, true), func() matcher {
			return func(int) []int32 { return all }
		}, true)
	}
	ix := indexJoin(l, r, common)
	return countThenFill(scope, workers, ix.probeN, schema, joinSources(l, r, ix.probeIsL), func() matcher {
		ht := ix.build.reader()
		return func(p int) []int32 { return ht.lookup(ix.probe, ix.remaps, p) }
	}, false)
}

// JoinSizeBlocks returns |l ⋈ r| without building the join: the smaller side
// is indexed exactly as JoinBlocksGoverned indexes it, and every probe row
// adds its number of matches. It charges nothing.
func JoinSizeBlocks(l, r *ColBlock) int64 {
	common := l.schema.AttrSet().Intersect(r.schema.AttrSet())
	if common.IsEmpty() {
		return int64(l.n) * int64(r.n)
	}
	ix := indexJoin(l, r, common)
	var n int64
	for p := 0; p < ix.probeN; p++ {
		n += int64(len(ix.build.lookup(ix.probe, ix.remaps, p)))
	}
	return n
}

// joinIndex is a join's build table over the smaller side (l on a tie, as
// in hashJoinInto), with the probe side's key columns and their remaps into
// the table's key space.
type joinIndex struct {
	build    *codeHash
	probe    [][]uint32
	remaps   [][]int32
	probeIsL bool
	probeN   int
}

// indexJoin builds the joinIndex of l ⋈ r on their nonempty common
// attributes.
func indexJoin(l, r *ColBlock, common AttrSet) joinIndex {
	lPos, _ := l.schema.Positions(common)
	rPos, _ := r.schema.Positions(common)
	build, buildPos, probe, probePos := l, lPos, r, rPos
	probeIsL := l.n > r.n
	if probeIsL {
		build, buildPos, probe, probePos = r, rPos, l, lPos
	}
	return joinIndex{
		build:    buildCodeHash(build, buildPos),
		probe:    keyCols(probe, probePos),
		remaps:   remapCols(probe, probePos, build, buildPos),
		probeIsL: probeIsL,
		probeN:   probe.n,
	}
}

// joinSources lists a join's output columns — l's, then r's columns not in
// l — with the side each is read from.
func joinSources(l, r *ColBlock, probeIsL bool) []colSource {
	srcs := make([]colSource, 0, r.schema.Len()+l.schema.Len())
	for _, col := range l.cols {
		srcs = append(srcs, colSource{col.dict, col.codes, probeIsL})
	}
	for i, a := range r.schema.Attrs() {
		if !l.schema.Has(a) {
			srcs = append(srcs, colSource{r.cols[i].dict, r.cols[i].codes, !probeIsL})
		}
	}
	return srcs
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
// abort outcome at every worker count.
func ParallelSemijoinBlocksGoverned(g *govern.Governor, l, r *ColBlock, workers int) (*ColBlock, error) {
	scope, err := g.Begin("relation.Semijoin")
	if err != nil {
		return nil, err
	}
	workers = rangeWorkers(workers, l.n+r.n)
	common := l.schema.AttrSet().Intersect(r.schema.AttrSet())
	// The output is l's supported rows: l probes, every output column is
	// read from it, and a supported row's one "match" is a placeholder.
	srcs := make([]colSource, len(l.cols))
	for c, col := range l.cols {
		srcs[c] = colSource{col.dict, col.codes, true}
	}
	hit := []int32{0}
	emit := func(n int, newMatcher func() matcher) (*ColBlock, error) {
		return countThenFill(scope, workers, n, l.schema, srcs, newMatcher, false)
	}
	if common.IsEmpty() {
		// l ⋉ r is l when r has a row and empty otherwise.
		n := l.n
		if r.n == 0 {
			n = 0
		}
		return emit(n, func() matcher { return func(int) []int32 { return hit } })
	}
	lPos, _ := l.schema.Positions(common)
	rPos, _ := r.schema.Positions(common)
	lCols, rCols := keyCols(l, lPos), keyCols(r, rPos)
	if l.n <= r.n {
		// Index the smaller (left) side: number l's distinct keys, scan r
		// marking which have support, then emit the supported l rows — the
		// same |l|-bounded-memory shape as the sequential operator. Every
		// range of the r scan marks its own bit vector (the key table is
		// read-only by then); the vectors are OR-ed before the emit pass.
		keys := newCodeSet(l, lPos)
		keyOf := make([]int32, l.n)
		for i := range keyOf {
			keyOf[i], _ = keys.put(lCols, i)
		}
		remaps := remapCols(r, rPos, l, lPos)
		bounds := splitRanges(r.n, workers)
		marks := make([][]bool, len(bounds)-1)
		err := runRanges(bounds, func(k, lo, hi int) error {
			set, marked, m := keys.reader(), make([]bool, keys.len()), scope.Meter()
			marks[k] = marked
			for j := lo; j < hi; j++ {
				if id := set.find(rCols, remaps, j); id >= 0 {
					marked[id] = true
				}
				if err := m.Add(0); err != nil {
					return err
				}
			}
			return m.Close()
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
		return emit(l.n, func() matcher {
			return func(i int) []int32 {
				if supported[keyOf[i]] {
					return hit
				}
				return nil
			}
		})
	}
	keys := newCodeSet(r, rPos)
	for j := 0; j < r.n; j++ {
		keys.put(rCols, j)
	}
	remaps := remapCols(l, lPos, r, rPos)
	return emit(l.n, func() matcher {
		set := keys.reader()
		return func(i int) []int32 {
			if set.find(lCols, remaps, i) >= 0 {
				return hit
			}
			return nil
		}
	})
}

// ProjectBlocksGoverned computes π_attrs(b) over a column block,
// deduplicating on dictionary-code keys. Output columns share the source
// columns' dictionaries.
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
	seen := newCodeSet(b, pos)
	m := scope.Meter()
	for i := 0; i < b.n; i++ {
		fresh := 0
		if _, ok := seen.put(cols, i); ok {
			for k, p := range pos {
				out.cols[k].codes = append(out.cols[k].codes, b.cols[p].codes[i])
			}
			out.n++
			fresh = 1
		}
		if err := m.Add(fresh); err != nil {
			return nil, err
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// matcher returns the build rows probe row p pairs with, in increasing row
// order. The slice belongs to the table and must not be modified.
type matcher func(p int) []int32

// colSource is one output column of a kernel: its dictionary, and the code
// column it is read from — on the probe side one code per probe row,
// repeated for each of the row's matches, otherwise one code per matched
// build row.
type colSource struct {
	dict      []Value
	codes     []uint32
	fromProbe bool
}

// countThenFill runs a kernel's two passes over nProbe probe rows, cut into
// up to workers contiguous ranges. The count pass asks every probe row for
// its matches and charges them on the range's own meter — one Add per probe
// row, or when perPair one AddEach standing for one call per output pair —
// exactly as the tuple-map operator charges them. Only when every range
// counted without error does the fill pass allocate each output column once
// and write each range's rows from that range's offset, so an aborted kernel
// writes no output. Each pass builds its own matcher per range, so a matcher
// may keep private scratch state.
func countThenFill(scope *govern.OpScope, workers, nProbe int, schema *Schema, srcs []colSource, newMatcher func() matcher, perPair bool) (*ColBlock, error) {
	bounds := splitRanges(nProbe, workers)
	at := make([]int, len(bounds)) // at[k+1] counts range k's rows, then becomes its end offset
	err := runRanges(bounds, func(k, lo, hi int) error {
		matches, n, meter := newMatcher(), 0, scope.Meter()
		for p := lo; p < hi; p++ {
			m := matches(p)
			n += len(m)
			var err error
			if perPair {
				err = meter.AddEach(len(m))
			} else {
				err = meter.Add(len(m))
			}
			if err != nil {
				return err
			}
		}
		at[k+1] = n
		return meter.Close()
	})
	if err != nil {
		return nil, err
	}
	for k := 1; k < len(at); k++ {
		at[k] += at[k-1]
	}
	out := &ColBlock{schema: schema, cols: make([]column, len(srcs)), n: at[len(at)-1]}
	for c, src := range srcs {
		out.cols[c] = column{dict: src.dict, codes: make([]uint32, out.n)}
	}
	// The fill charges nothing and cannot fail.
	_ = runRanges(bounds, func(k, lo, hi int) error {
		matches, row := newMatcher(), at[k]
		for p := lo; p < hi; p++ {
			m := matches(p)
			if len(m) == 0 {
				continue
			}
			for c, src := range srcs {
				dst := out.cols[c].codes[row : row+len(m)]
				if src.fromProbe {
					code := src.codes[p]
					for i := range dst {
						dst[i] = code
					}
				} else {
					for i, b := range m {
						dst[i] = src.codes[b]
					}
				}
			}
			row += len(m)
		}
		return nil
	})
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

// runRanges runs body over every range of bounds — a single range inline on
// the calling goroutine, several on one goroutine each — and returns the
// error of the lowest failed range. A charging body takes its own
// govern.Meter on the operator's scope and closes it; once one range has
// aborted on a budget, its siblings' meters fail at their next settle, so
// they stop within CheckEvery rows.
func runRanges(bounds []int, body func(k, lo, hi int) error) error {
	if len(bounds) == 2 {
		return body(0, bounds[0], bounds[1])
	}
	errs := make([]error, len(bounds)-1)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = body(k, bounds[k], bounds[k+1])
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// directSlack is the key-space allowance of directSpace: a side of n rows
// is addressed directly when its key columns span at most 8·n + directSlack
// keys. The arrays then take 4·(K+n) bytes, no more than the map entries
// they replace, and the slack covers tiny blocks over small dictionaries.
const directSlack = 256

// keySpace numbers the keys of one block's key columns by mixed radix: the
// key of codes (c_0, …, c_m) is Σ c_k·strides[k], dense in [0, size), where
// the radixes are the columns' dictionary sizes.
type keySpace struct {
	strides []int
	size    int
}

// directSpace returns the key space of b's columns at pos and whether it is
// small enough to address directly: size ≤ 8·b.n + directSlack. The rule
// reads only the block, so the same input always gets the same table.
func directSpace(b *ColBlock, pos []int) (keySpace, bool) {
	limit := 8*b.n + directSlack
	s := keySpace{strides: make([]int, len(pos)), size: 1}
	for k := len(pos) - 1; k >= 0; k-- {
		s.strides[k] = s.size
		d := len(b.cols[pos[k]].dict)
		if d > 0 && s.size > limit/d {
			return keySpace{}, false
		}
		s.size *= d
	}
	return s, true
}

// at returns row i's key, read from the code columns cols and translated
// through remaps as packedKeyAt does. ok is false when a code has no image,
// in which case the row cannot match anything.
func (s keySpace) at(cols [][]uint32, remaps [][]int32, i int) (key int, ok bool) {
	for k, codes := range cols {
		c := int(codes[i])
		if remaps != nil {
			m := remaps[k][c]
			if m < 0 {
				return 0, false
			}
			c = int(m)
		}
		key += c * s.strides[k]
	}
	return key, true
}

// codeHash is the join build table: build-row indexes keyed by codes. When
// directSpace allows it the table is CSR over the key space — the rows of
// key k are rows[start[k]:start[k+1]] — and otherwise a map keyed by packed
// codes (uint64 up to two key columns, byte string beyond). Either way each
// key's rows are in increasing row order.
type codeHash struct {
	space  keySpace
	start  []int32
	rows   []int32
	packed map[uint64][]int32
	wide   map[string][]int32
	buf    []byte
}

// buildCodeHash indexes b's rows on the key columns at pos.
func buildCodeHash(b *ColBlock, pos []int) *codeHash {
	cols := keyCols(b, pos)
	if space, ok := directSpace(b, pos); ok {
		// A counting sort: count each key's rows, prefix-sum the counts to
		// each key's end, then place rows from the last one backwards, which
		// leaves start[k] at the key's first slot and every key's rows in
		// increasing order.
		h := &codeHash{space: space, start: make([]int32, space.size+1), rows: make([]int32, b.n)}
		for i := 0; i < b.n; i++ {
			k, _ := space.at(cols, nil, i)
			h.start[k]++
		}
		for k := 1; k <= space.size; k++ {
			h.start[k] += h.start[k-1]
		}
		for i := b.n - 1; i >= 0; i-- {
			k, _ := space.at(cols, nil, i)
			h.start[k]--
			h.rows[h.start[k]] = int32(i)
		}
		return h
	}
	h := &codeHash{}
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

// reader returns a view of the table for one probing goroutine: the arrays
// and maps are shared (read-only once built), the wide-key scratch buffer
// is private.
func (h *codeHash) reader() *codeHash {
	r := *h
	r.buf = nil
	return &r
}

// lookup returns the build rows matching probe row i, read from the probe
// side's code columns and translated through remaps. A probe whose codes
// have no image in the build dictionaries returns nil without touching the
// table. Direct and packed lookups allocate nothing.
func (h *codeHash) lookup(probeCols [][]uint32, remaps [][]int32, i int) []int32 {
	if h.start != nil {
		k, ok := h.space.at(probeCols, remaps, i)
		if !ok {
			return nil
		}
		return h.rows[h.start[k]:h.start[k+1]]
	}
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

// codeSet numbers the distinct code keys it is given, densely from 0 in
// first-seen order: the semijoin key table (whose ids index the support bit
// vectors) and the projection dedup table. When directSpace allows it the
// ids live in an array over the key space, −1 marking an absent key, and
// otherwise in a map keyed by packed codes, as in codeHash.
type codeSet struct {
	space  keySpace
	ids    []int32
	n      int32 // keys numbered in ids
	packed map[uint64]int32
	wide   map[string]int32
	buf    []byte
}

// newCodeSet prepares an empty set over b's key columns at pos, sized for
// b's rows.
func newCodeSet(b *ColBlock, pos []int) *codeSet {
	if space, ok := directSpace(b, pos); ok {
		ids := make([]int32, space.size)
		for k := range ids {
			ids[k] = -1
		}
		return &codeSet{space: space, ids: ids}
	}
	if len(pos) <= 2 {
		return &codeSet{packed: make(map[uint64]int32, b.n)}
	}
	return &codeSet{wide: make(map[string]int32, b.n)}
}

// len returns the number of distinct keys.
func (s *codeSet) len() int { return int(s.n) + len(s.packed) + len(s.wide) }

// reader is codeHash.reader for a finished set: shared tables, private
// scratch buffer, find only.
func (s *codeSet) reader() *codeSet {
	r := *s
	r.buf = nil
	return &r
}

// put returns the id of row i's key, inserting it when absent; fresh
// reports whether this call inserted it (the projection dedup step).
func (s *codeSet) put(cols [][]uint32, i int) (id int32, fresh bool) {
	if s.ids != nil {
		k, _ := s.space.at(cols, nil, i)
		if id := s.ids[k]; id >= 0 {
			return id, false
		}
		s.ids[k] = s.n
		s.n++
		return s.ids[k], true
	}
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
	if s.ids != nil {
		if k, ok := s.space.at(cols, remaps, i); ok {
			return s.ids[k]
		}
		return -1
	}
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
