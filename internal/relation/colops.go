package relation

import (
	"encoding/binary"
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
// crossed, as the tuple-map operators' meters do — so the governor cannot
// tell the two apart: charge totals and whether a budget aborts coincide,
// and so does the abort point on one range. The differential gauntlet in
// columnardiff_test.go enforces this.
//
// A kernel indexes one side's key columns in a keySpace and keys the other
// side into it probeBatch rows at a time. Matching across blocks works by
// translation tables built once per call: for every key column, the probe
// side's sorted dictionary is merged against the indexed side's
// (O(|dictL| + |dictR|)) into probe code → that code's term of the key, so
// a batch's keys are sums of table reads, one column at a time. The indexed
// side picks the space's shape from its own size (directSpace): when its
// key columns' dictionaries span few enough keys, a key is the mixed-radix
// number of its codes and is its own match id, and a code with no image
// adds the space's size, so min(key, size) sends the row to one sentinel id
// that matches nothing; otherwise keys pack into a uint64 (one or two
// columns) or a byte string (three or more) that a map numbers. Every
// kernel's table has one form, a matchTable: a CSR from match id to build
// rows. The count pass charges a batch's matches row by row; the fill pass
// keys the batch again, compacts it to the rows that matched and writes
// each output column over that selection only. Neither pass allocates but
// for a wide key's byte buffer, one per range.
//
// A join of two plain blocks fills nothing: its count pass keeps every
// probe row's match id, and it returns a head (ColBlock.cols writes it on
// first need). A kernel whose keyed side is a
// head — a join's probe side, a semijoin's either side — reads it as
// pairs, probeBatch at a time, in the row order of the written head: each
// probe row, then its build range. A pair's key is the probe row's terms,
// summed once per probe row, plus the build row's. A join probing a head
// writes its output; every other reader of a head writes it.

// probeBatch is the number of rows the kernels key, look up and fill at a
// time.
const probeBatch = 256

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
// threshold probe as one range on the calling goroutine. When the probe
// side is a plain block the output is a head, written on first need.
func ParallelJoinBlocksGoverned(g *govern.Governor, l, r *ColBlock, workers int) (*ColBlock, error) {
	scope, err := g.Begin("relation.Join")
	if err != nil {
		return nil, err
	}
	ix := indexJoin(l, r)
	// The Cartesian product (no common attribute) is charged one pair at a
	// time, as the tuple-map join charges it. A join probing a head writes
	// its output: heads are one level deep.
	keep := ix.probe.head == nil
	h, err := count(scope, rangeWorkers(workers, l.n+r.n), ix.probe, ix.table, ix.product, keep)
	if err != nil {
		return nil, err
	}
	schema, srcs := joinSchema(l.schema, r.schema), joinSources(l, r, ix.probeIsL)
	if !keep {
		return h.block(schema, srcs), nil
	}
	h.srcs, h.p = srcs, prober{} // the recorded ids replace the probe side's key space
	return &ColBlock{schema: schema, n: h.n(), head: h}, nil
}

// JoinSizeBlocks returns |l ⋈ r| without building the join: the smaller side
// is indexed exactly as JoinBlocksGoverned indexes it, and every probe row
// adds its number of matches. It charges nothing.
func JoinSizeBlocks(l, r *ColBlock) int64 {
	ix := indexJoin(l, r)
	var b batch
	var n int64
	s := span{hi: ix.probe.rows()}
	for ids := ix.probe.next(&b, &s, false); len(ids) > 0; ids = ix.probe.next(&b, &s, false) {
		for _, id := range ids {
			n += int64(ix.table.start[id+1] - ix.table.start[id])
		}
	}
	return n
}

// joinIndex is a join's build table, with the probe side keyed into its key
// space.
type joinIndex struct {
	probe    prober
	table    matchTable
	probeIsL bool
	product  bool
}

// indexJoin indexes l ⋈ r on their common attributes: the smaller side is
// built (l on a tie, as in hashJoinInto), except that a Cartesian product
// builds r, its inner side, on the empty key. A head builds on its written
// columns; a head probes as pairs.
func indexJoin(l, r *ColBlock) joinIndex {
	lPos, rPos := CommonPositions(l.schema, r.schema)
	product := len(lPos) == 0
	build, buildPos, probe, probePos := l, lPos, r, rPos
	probeIsL := l.n > r.n || product
	if probeIsL {
		build, buildPos, probe, probePos = r, rPos, l, lPos
	}
	build = build.plain()
	space := newKeySpace(build, buildPos)
	own := newProber(space, build, buildPos, build, buildPos)
	return joinIndex{
		table:    own.index(false),
		probe:    newProber(space, probe, probePos, build, buildPos),
		probeIsL: probeIsL,
		product:  product,
	}
}

// joinSources lists a join's output columns — l's, then r's columns not in
// l — with the side each is read from.
func joinSources(l, r *ColBlock, probeIsL bool) []colSource {
	srcs := make([]colSource, 0, r.schema.Len()+l.schema.Len())
	for c := range l.schema.Len() {
		srcs = append(srcs, l.source(c, probeIsL))
	}
	for i, a := range r.schema.Attrs() {
		if !l.schema.Has(a) {
			srcs = append(srcs, r.source(i, !probeIsL))
		}
	}
	return srcs
}

// ParallelSemijoinBlocksGoverned computes l ⋉ r over column blocks: the
// rows of l with at least one match in r. The output shares l's schema and
// dictionaries; only code vectors are written, and when every row of l
// matches the output is l itself. It scans with up to workers goroutines
// over contiguous row ranges, under the same contract as
// ParallelJoinBlocksGoverned: identical rows, row order, charges, and abort
// outcome at every worker count.
func ParallelSemijoinBlocksGoverned(g *govern.Governor, l, r *ColBlock, workers int) (*ColBlock, error) {
	scope, err := g.Begin("relation.Semijoin")
	if err != nil {
		return nil, err
	}
	workers = rangeWorkers(workers, l.n+r.n)
	// The output is l's supported rows: l probes, every output column is
	// read from it, and a supported row has one match in a hit table.
	semijoin := func(p prober, t matchTable) (*ColBlock, error) {
		h, err := count(scope, workers, p, t, false, false)
		switch {
		case err != nil:
			return nil, err
		case h.n() == l.n: // nothing removed: the charge stands, nothing is written
			return l, nil
		}
		srcs := make([]colSource, l.schema.Len())
		for c := range srcs {
			srcs[c] = l.source(c, true)
		}
		return h.block(l.schema, srcs), nil
	}
	lPos, rPos := CommonPositions(l.schema, r.schema)
	if len(lPos) == 0 || l.n > r.n {
		// Index r's distinct keys — with no common attribute, the empty key,
		// present when r has a row — and key l's rows into them.
		space := newKeySpace(r, rPos)
		hits := newProber(space, r, rPos, r, rPos).index(true)
		return semijoin(newProber(space, l, lPos, r, rPos), hits)
	}
	// Index the smaller (left) side: number l's distinct keys, scan r
	// marking which have support, then emit the supported l rows — the
	// same |l|-bounded-memory shape as the sequential operator. Every range
	// of the r scan marks its own vector (the key space is read-only by
	// then) and polls its meter once per row, as the tuple-map scan visits;
	// the vectors are OR-ed into the hit table.
	space := newKeySpace(l, lPos)
	own := newProber(space, l, lPos, l, lPos)
	own.number()
	scan := newProber(space, r, rPos, l, lPos)
	bounds := splitRanges(scan.rows(), workers)
	marks := make([][]int32, len(bounds)-1)
	err = runRanges(bounds, func(k, lo, hi int) error {
		var b batch
		marked, m := make([]int32, space.miss()+2), scope.Meter()
		marks[k] = marked
		s := span{lo: lo, hi: hi}
		for ids := scan.next(&b, &s, false); len(ids) > 0; ids = scan.next(&b, &s, false) {
			for _, id := range ids {
				marked[id+1] = 1
				if err := m.Add(0); err != nil {
					return err
				}
			}
		}
		return m.Close()
	})
	if err != nil {
		return nil, err
	}
	for _, m := range marks[1:] {
		for i, hit := range m {
			marks[0][i] |= hit
		}
	}
	return semijoin(own, hitTable(marks[0]))
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
	b = b.plain()
	cols := b.cols()
	pos, _ := b.schema.Positions(attrs)
	out := &ColBlock{schema: MustSchema(attrs...), data: make([]column, len(pos))}
	for k, p := range pos {
		out.data[k].dict = cols[p].dict
	}
	own := newProber(newKeySpace(b, pos), b, pos, b, pos)
	seen := make([]bool, own.space.idBound(b.n))
	m := scope.Meter()
	var bt batch
	for lo := 0; lo < b.n; lo += probeBatch {
		for i, id := range own.ids(&bt, lo, min(probeBatch, b.n-lo), true) {
			fresh := 0
			if !seen[id] {
				seen[id] = true
				for k, p := range pos {
					out.data[k].codes = append(out.data[k].codes, cols[p].codes[lo+i])
				}
				out.n++
				fresh = 1
			}
			if err := m.Add(fresh); err != nil {
				return nil, err
			}
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// colSource is one output column of a kernel: its dictionary, and the code
// column it is read from — on the probe side one code per probe row,
// repeated for each of the row's matches, otherwise one code per matched
// build row. A probe side that is a head reads its column's codes at each
// pair's probe row, or with atBuild at its build row.
type colSource struct {
	dict      []Value
	codes     []uint32
	fromProbe bool
	atBuild   bool
}

// source returns column c of b as a kernel's colSource: read through a
// head's pairs when fromProbe, else from the block's written columns.
func (b *ColBlock) source(c int, fromProbe bool) colSource {
	if h := b.head; h != nil && fromProbe {
		s := h.srcs[c]
		return colSource{dict: s.dict, codes: s.codes, fromProbe: true, atBuild: !s.fromProbe}
	}
	col := b.cols()[c]
	return colSource{dict: col.dict, codes: col.codes, fromProbe: fromProbe}
}

// head is a kernel's output after its count pass: the probe side's ranges,
// where each range's output rows start, and the table its rows match in.
// The semijoins and a join probing a head write it at once (block); a join
// of plain blocks keeps it as its probe rows' match ids, recorded by the
// count pass, and the block's cols writes it on first need.
type head struct {
	p          prober
	t          matchTable
	bounds, at []int   // probe-row ranges; at[k] is range k's first output row
	ids        []int32 // a kept head's probe-row match ids
	srcs       []colSource
	once       sync.Once
	cols       []column
}

// n returns the head's row count.
func (h *head) n() int { return h.at[len(h.at)-1] }

// count runs a kernel's count pass over p's rows, cut into up to workers
// contiguous ranges and each range into batches: it looks up every probe
// row's matches in t and charges them on the range's own meter, row by row
// — one Add per probe row, or when perPair one AddEach standing for one call
// per output pair — exactly as the tuple-map operator charges them. A head
// probe side's rows are its pairs, and its ranges cut its probe rows. With
// record it keeps a plain probe side's match ids. It allocates no output,
// so an aborted kernel writes none.
func count(scope *govern.OpScope, workers int, p prober, t matchTable, perPair, record bool) (*head, error) {
	h := &head{p: p, t: t, bounds: splitRanges(p.rows(), workers)}
	h.at = make([]int, len(h.bounds)) // at[k+1] counts range k's rows, then becomes its end offset
	if record {
		h.ids = make([]int32, p.n)
	}
	err := runRanges(h.bounds, func(k, lo, hi int) error {
		var b batch
		n, meter := 0, scope.Meter()
		s := span{lo: lo, hi: hi}
		for ids := p.next(&b, &s, false); len(ids) > 0; ids = p.next(&b, &s, false) {
			if record {
				copy(h.ids[b.lo:], ids)
			}
			for _, id := range ids {
				c := int(t.start[id+1] - t.start[id])
				n += c
				var err error
				if perPair {
					err = meter.AddEach(c)
				} else {
					err = meter.Add(c)
				}
				if err != nil {
					return err
				}
			}
		}
		h.at[k+1] = n
		return meter.Close()
	})
	if err != nil {
		return nil, err
	}
	for k := 1; k < len(h.at); k++ {
		h.at[k] += h.at[k-1]
	}
	return h, nil
}

// block writes the head's rows as a block over schema, each column from its
// source in srcs.
func (h *head) block(schema *Schema, srcs []colSource) *ColBlock {
	h.srcs = srcs
	return &ColBlock{schema: schema, data: h.fill(), n: h.n()}
}

// fill allocates each output column once and writes each range's rows from
// that range's offset. It keys each batch again — a kept head reads its
// recorded ids — and compacts it to the rows with a nonempty match range
// before writing any column. It charges nothing and cannot fail.
func (h *head) fill() []column {
	cols := make([]column, len(h.srcs))
	for c, src := range h.srcs {
		cols[c] = column{dict: src.dict, codes: make([]uint32, h.n())}
	}
	_ = runRanges(h.bounds, func(k, lo, hi int) error {
		var b batch
		row := h.at[k]
		s := span{lo: lo, hi: hi}
		for {
			var ids []int32
			if h.ids != nil {
				b.lo, s.lo = s.lo, min(s.lo+probeBatch, s.hi)
				ids = h.ids[b.lo:s.lo]
			} else {
				ids = h.p.next(&b, &s, false)
			}
			if len(ids) == 0 {
				return nil
			}
			sel, n := 0, 0
			for i, id := range ids {
				c := h.t.start[id+1] - h.t.start[id]
				b.sel[sel] = int32(i)
				sel += int(uint32(-c) >> 31) // 1 when the range is nonempty
				n += int(c)
			}
			// single: every selected row has one match, so each column is a
			// plain gather.
			single := n == sel
			for c, src := range h.srcs {
				dst := cols[c].codes[row : row+n]
				switch {
				case src.fromProbe && single:
					codes := b.probeCodes(src, h.p.head != nil, len(ids))
					for j, i := range b.sel[:sel] {
						dst[j] = codes[i]
					}
				case src.fromProbe:
					codes, w := b.probeCodes(src, h.p.head != nil, len(ids)), 0
					for _, i := range b.sel[:sel] {
						id := ids[i]
						d := dst[w : w+int(h.t.start[id+1]-h.t.start[id])]
						for j := range d {
							d[j] = codes[i]
						}
						w += len(d)
					}
				case single:
					for j, i := range b.sel[:sel] {
						dst[j] = src.codes[h.t.rows[h.t.start[ids[i]]]]
					}
				default:
					w := 0
					for _, i := range b.sel[:sel] {
						id := ids[i]
						for _, r := range h.t.rows[h.t.start[id]:h.t.start[id+1]] {
							dst[w] = src.codes[r]
							w++
						}
					}
				}
			}
			row += n
		}
	})
	return cols
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

// directSlack is the key-space allowance of directSpace: a side of n rows
// is addressed directly when its key columns span at most 8·n + directSlack
// keys. The table then takes 4·(K+n) bytes, no more than the map entries it
// replaces, and the slack covers tiny blocks over small dictionaries.
const directSlack = 256

// keySpace is the key numbering of one block's key columns — the side a
// kernel indexes — and maps every key to a match id in [0, miss()], miss()
// being the id of every key the side does not hold. A key column's code c
// adds c·strides[k] to the key. On a direct space the key is the
// mixed-radix number of the codes, dense in [0, size), and is its own id;
// on the map shapes the codes pack into 32-bit fields of a uint64 (one or
// two columns, packed) or into a byte string (three or more, wide), and the
// map numbers the side's keys densely in first-seen order. A key is a
// uint64 sum that cannot overflow: a direct one is at most m·size for m
// key columns, and packed fields are disjoint.
type keySpace struct {
	strides []uint64
	size    uint64
	packed  map[uint64]int32
	wide    map[string]int32
}

// directSpace returns the direct key space of b's columns at pos and
// whether it is small enough to address: size ≤ 8·b.n + directSlack. The
// rule reads only the block, so the same input always gets the same table.
func directSpace(b *ColBlock, pos []int) (keySpace, bool) {
	limit := uint64(8*b.n + directSlack)
	s := keySpace{strides: make([]uint64, len(pos)), size: 1}
	for k := len(pos) - 1; k >= 0; k-- {
		s.strides[k] = s.size
		d := uint64(len(b.Dict(pos[k])))
		if d > 0 && s.size > limit/d {
			return keySpace{}, false
		}
		s.size *= d
	}
	return s, true
}

// newKeySpace returns the key space of b's columns at pos: direct when
// directSpace allows it, else an empty map shape that the indexed side's
// rows number as they are keyed.
func newKeySpace(b *ColBlock, pos []int) keySpace {
	if s, ok := directSpace(b, pos); ok {
		return s
	}
	s := keySpace{strides: make([]uint64, len(pos))}
	for k := range s.strides {
		s.strides[k] = 1
		if len(pos) == 2 && k == 0 {
			s.strides[k] = 1 << 32
		}
	}
	if len(pos) <= 2 {
		s.packed = make(map[uint64]int32, b.n)
	} else {
		s.wide = make(map[string]int32, b.n)
	}
	return s
}

// direct reports whether keys are their own ids.
func (s keySpace) direct() bool { return s.packed == nil && s.wide == nil }

// miss returns the id of every key the indexed side does not hold.
func (s keySpace) miss() int32 {
	if s.direct() {
		return int32(s.size)
	}
	return int32(len(s.packed) + len(s.wide))
}

// idBound bounds the ids of the keys of a side of n rows: the size of a
// direct space, otherwise n.
func (s keySpace) idBound(n int) int {
	if s.direct() {
		return int(s.size)
	}
	return n
}

// absent is key column k's term for a code with no image in the space: on
// a direct space its size, which the clamp turns into the miss id, and on
// the map shapes a field of all ones, which no key of the space holds.
func (s keySpace) absent(k int) uint64 {
	if s.direct() {
		return s.size
	}
	return 0xFFFFFFFF * s.strides[k]
}

// prober keys the n rows of one side into a key space, a batch at a time.
// A head's rows are its pairs, keyed through its parents' columns.
type prober struct {
	space keySpace
	cols  []keyCol
	n     int
	head  *head
}

// keyCol is one key column of a prober: its codes, and the translation
// table from a code to its term of the key — nil when the column shares the
// space's dictionary, whose code c is the term c·stride. On a head, build
// marks a column read at each pair's build row rather than its probe row.
type keyCol struct {
	codes  []uint32
	terms  []uint64
	stride uint64
	build  bool
}

// term returns code's term of the key.
func (c *keyCol) term(code uint32) uint64 {
	if c.terms == nil {
		return uint64(code) * c.stride
	}
	return c.terms[code]
}

// newProber keys b's rows at pos into space, the key space of onto's
// columns at ontoPos. A column whose dictionary differs from onto's gets a
// translation table, merged from the two sorted dictionaries; all of a
// prober's tables are carved from one allocation.
func newProber(space keySpace, b *ColBlock, pos []int, onto *ColBlock, ontoPos []int) prober {
	p := prober{space: space, cols: make([]keyCol, len(pos)), n: b.n, head: b.head}
	total := 0
	for k, q := range pos {
		src := b.source(q, true)
		p.cols[k] = keyCol{codes: src.codes, stride: space.strides[k], build: src.atBuild}
		if !sameDict(src.dict, onto.Dict(ontoPos[k])) {
			total += len(src.dict)
		}
	}
	terms := make([]uint64, total)
	for k, q := range pos {
		from, to := b.Dict(q), onto.Dict(ontoPos[k])
		if sameDict(from, to) {
			continue
		}
		c := &p.cols[k]
		c.terms, terms = terms[:len(from):len(from)], terms[len(from):]
		// Merge the sorted dictionaries: from[i]'s code in to, or absent.
		j := 0
		for i, v := range from {
			for j < len(to) && to[j].Compare(v) < 0 {
				j++
			}
			if j < len(to) && to[j].Equal(v) {
				c.terms[i] = uint64(j) * c.stride
			} else {
				c.terms[i] = space.absent(k)
			}
		}
	}
	return p
}

// sameDict reports whether two dictionaries are one slice, as when kernel
// outputs share their inputs' dictionaries.
func sameDict(a, b []Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// batch is one goroutine's scratch for probeBatch rows: a value on its
// stack, so probing allocates nothing (wide keys aside, whose buffer is
// made once per batch value). lo is a plain side's first row in the batch;
// prow and brow are a head's pairs, codes a head's column gathered at them.
type batch struct {
	keys       [probeBatch]uint64
	ids        [probeBatch]int32
	sel        [probeBatch]int32
	prow, brow [probeBatch]int32
	codes      [probeBatch]uint32
	lo         int
	wide       []byte
}

// span is a walk over the rows [lo, hi) of a prober's side — over a head's
// probe rows, k being the pairs of row lo already walked.
type span struct {
	lo, hi int
	k      int32
}

// rows returns the number of rows a span of p walks: a head's probe rows.
func (p *prober) rows() int {
	if p.head != nil {
		return len(p.head.ids)
	}
	return p.n
}

// next returns the match ids of the next batch of s, empty once s is
// walked: probeBatch rows of a plain side, or probeBatch pairs of a head.
func (p *prober) next(b *batch, s *span, insert bool) []int32 {
	if p.head != nil {
		return p.pairIDs(b, s, insert)
	}
	b.lo, s.lo = s.lo, min(s.lo+probeBatch, s.hi)
	return p.ids(b, b.lo, s.lo-b.lo, insert)
}

// ids returns the match ids of p's rows [lo, lo+n), n ≤ probeBatch: their
// keys, summed one column at a time, then looked up.
func (p *prober) ids(b *batch, lo, n int, insert bool) []int32 {
	if p.space.wide != nil {
		w := b.wideWidth(len(p.cols))
		for k := range p.cols {
			c := &p.cols[k]
			for i, code := range c.codes[lo : lo+n] {
				binary.BigEndian.PutUint32(b.wide[i*w+4*k:], uint32(c.term(code)))
			}
		}
		return p.lookup(b, n, insert)
	}
	keys := b.keys[:n]
	clear(keys)
	for _, c := range p.cols {
		codes := c.codes[lo : lo+n]
		if c.terms == nil {
			for i, code := range codes {
				keys[i] += uint64(code) * c.stride
			}
		} else {
			for i, code := range codes {
				keys[i] += c.terms[code]
			}
		}
	}
	return p.lookup(b, n, insert)
}

// pairIDs is next on a head: it walks s's probe rows into the batch's pairs
// until probeBatch are taken, summing a probe row's terms once for all its
// pairs, then adds each pair's build-row terms one column at a time and
// looks the keys up.
func (p *prober) pairIDs(b *batch, s *span, insert bool) []int32 {
	h, n := p.head, 0
	for s.lo < s.hi && n < probeBatch {
		id := h.ids[s.lo]
		rows := h.t.rows[h.t.start[id]+s.k : h.t.start[id+1]]
		m := copy(b.brow[n:], rows)
		if m > 0 {
			var part uint64
			for k := range p.cols {
				if c := &p.cols[k]; !c.build {
					part += c.term(c.codes[s.lo])
				}
			}
			for j := n; j < n+m; j++ {
				b.prow[j], b.keys[j] = int32(s.lo), part
			}
		}
		n += m
		if s.k += int32(m); m == len(rows) {
			s.lo, s.k = s.lo+1, 0
		}
	}
	if p.space.wide != nil {
		w := b.wideWidth(len(p.cols))
		for k := range p.cols {
			c, at := &p.cols[k], b.prow[:n]
			if c.build {
				at = b.brow[:n]
			}
			for j, r := range at {
				binary.BigEndian.PutUint32(b.wide[j*w+4*k:], uint32(c.term(c.codes[r])))
			}
		}
		return p.lookup(b, n, insert)
	}
	keys := b.keys[:n]
	for k := range p.cols {
		if c := &p.cols[k]; c.build {
			for j, r := range b.brow[:n] {
				keys[j] += c.term(c.codes[r])
			}
		}
	}
	return p.lookup(b, n, insert)
}

// probeCodes returns a probe-side column's codes at the batch's n rows: a
// slice of a plain side's column, or on a head (pairs) the column gathered
// at each pair's probe or build row.
func (b *batch) probeCodes(src colSource, pairs bool, n int) []uint32 {
	if !pairs {
		return src.codes[b.lo : b.lo+n]
	}
	at := b.prow[:n]
	if src.atBuild {
		at = b.brow[:n]
	}
	codes := b.codes[:n]
	for j, r := range at {
		codes[j] = src.codes[r]
	}
	return codes
}

// wideWidth returns the bytes of a wide key over k columns, making the
// batch's byte buffer on first use.
func (b *batch) wideWidth(k int) int {
	w := 4 * k
	if len(b.wide) < probeBatch*w {
		b.wide = make([]byte, probeBatch*w)
	}
	return w
}

// lookup turns the batch's n keys into match ids: clamped to the miss id on
// a direct space, looked up on the map shapes — where each key was written
// big-endian, one column at a time, into its slot of the byte buffer on the
// wide one. With insert, a map shape numbers the keys it does not hold (the
// indexed side's own rows); otherwise they take the miss id.
func (p *prober) lookup(b *batch, n int, insert bool) []int32 {
	ids := b.ids[:n]
	switch {
	case p.space.wide != nil:
		m, w := p.space.wide, 4*len(p.cols)
		for i := range ids {
			key := b.wide[i*w : (i+1)*w]
			id, ok := m[string(key)]
			if !ok {
				id = int32(len(m))
				if insert {
					m[string(key)] = id
				}
			}
			ids[i] = id
		}
	case p.space.packed != nil:
		m := p.space.packed
		for i, key := range b.keys[:n] {
			id, ok := m[key]
			if !ok {
				id = int32(len(m))
				if insert {
					m[key] = id
				}
			}
			ids[i] = id
		}
	default:
		for i, key := range b.keys[:n] {
			ids[i] = int32(min(key, p.space.size))
		}
	}
	return ids
}

// number keys every row of p, the indexed side's own, so that a map shape
// holds all of the side's keys before another side probes it.
func (p *prober) number() {
	if p.space.direct() {
		return
	}
	var b batch
	s := span{hi: p.rows()}
	for ids := p.next(&b, &s, true); len(ids) > 0; ids = p.next(&b, &s, true) {
	}
}

// matchTable is every binary kernel's build table: the matches of id m are
// rows[start[m]:start[m+1]], in increasing order, and the miss id's range
// is empty. A semijoin's hit table (hitTable) gives each id at most one
// match and has no rows.
type matchTable struct {
	start, rows []int32
}

// index builds the table over p's rows, the indexed side's own, numbering
// their keys on a map shape. Each id's rows are the rows holding its key —
// a counting sort over the ids, on a plain side only — or, when distinct,
// the id is a hit when any row holds it: the semijoin's table.
func (p prober) index(distinct bool) matchTable {
	bound, n := p.space.idBound(p.n), p.n
	if distinct {
		n = 0
	}
	slab := make([]int32, bound+2+n)
	start, rows := slab[:bound+2], slab[bound+2:]
	var b batch
	s := span{hi: p.rows()}
	for ids := p.next(&b, &s, true); len(ids) > 0; ids = p.next(&b, &s, true) {
		for _, id := range ids {
			if distinct {
				start[id+1] = 1
			} else {
				start[id+1]++
			}
		}
	}
	start = start[:p.space.miss()+2]
	if distinct {
		return hitTable(start)
	}
	for id := 1; id < len(start); id++ {
		start[id] += start[id-1]
	}
	// Place every row at its id's cursor, which leaves start[id] at the
	// id's end; shifting by one restores the starts.
	for lo := 0; lo < p.n; lo += probeBatch {
		for i, id := range p.ids(&b, lo, min(probeBatch, p.n-lo), false) {
			rows[start[id]] = int32(lo + i)
			start[id]++
		}
	}
	copy(start[1:], start)
	start[0] = 0
	return matchTable{start: start, rows: rows}
}

// hitTable turns marks, where marks[id+1] is 1 when id is a hit, into the
// semijoin's table in place: one match for every hit but the last id, the
// miss id, which has none. A hit table has no rows — its kernel reads no
// build column — so its matches are counted, never read.
func hitTable(marks []int32) matchTable {
	marks[len(marks)-1] = 0
	for id := 1; id < len(marks); id++ {
		marks[id] += marks[id-1]
	}
	return matchTable{start: marks}
}
