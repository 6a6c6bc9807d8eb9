package wcoj

import (
	"sync"

	"repro/internal/govern"
)

// enumerateParallel splits the outermost variable's bindings across
// workers: the depth-0 intersection is computed once (cheap — one pass over
// the top trie levels) with each key's position in every relation carrying
// it, partitioned into contiguous chunks, and each worker enumerates its
// chunk from those positions with its own executor over the shared tries and
// its own meter on the one scope, so the charged totals and whether a budget
// aborts are those of the sequential run; the chunks bind disjoint outermost
// keys, so the concatenated outputs are disjoint too — and, the chunks being
// ascending, in the sequential run's row order. bindings, when non-nil,
// receives the sum of the workers' private binding counts once they finish.
func enumerateParallel(order []string, tries []*trieIndex, scope *govern.OpScope, workers int, bindings []int64) (*emitter, error) {
	tops, stride, err := topKeys(order, tries, scope)
	if err != nil {
		return nil, err
	}
	n := len(tops) / stride
	if workers > n {
		workers = n
	}
	if workers < 2 {
		return enumerate(order, tries, scope, bindings)
	}

	parts := make([]*executor, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		chunk := tops[w*n/workers*stride : (w+1)*n/workers*stride]
		var own []int64
		if bindings != nil {
			own = make([]int64, len(order))
		}
		parts[w] = newExecutor(order, tries, scope, own)
		wg.Add(1)
		go func(w int, chunk []uint32) {
			defer wg.Done()
			errs[w] = parts[w].runKeys(chunk, stride)
		}(w, chunk)
	}
	wg.Wait()
	for _, part := range parts {
		for v, n := range part.bindings {
			bindings[v] += n
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &emitter{cols: make([][]uint32, len(order))}
	for _, part := range parts {
		out.n += part.out.n
	}
	for v := range out.cols {
		out.cols[v] = make([]uint32, 0, out.n)
		for _, part := range parts {
			out.cols[v] = append(out.cols[v], part.out.cols[v]...)
		}
	}
	return out, nil
}

// topKeys returns the ascending intersection of the outermost variable's
// keys across the relations carrying it, one row of stride entries per
// key: the key, then its node position in each of those relations' level 0.
func topKeys(order []string, tries []*trieIndex, scope *govern.OpScope) (tops []uint32, stride int, err error) {
	ex := newExecutor(order, tries, scope, nil)
	ex.ops, ex.top = ex.ops[:1], true
	if err := ex.run(0, make([]uint32, len(order))); err != nil {
		return nil, 0, err
	}
	return ex.tops, 1 + len(ex.ops[0]), ex.meter.Close()
}

// collect records a binding of the outermost variable for topKeys.
func (ex *executor) collect(key uint32) {
	ex.tops = append(ex.tops, key)
	for _, op := range ex.ops[0] {
		ex.tops = append(ex.tops, uint32(ex.pos[op.at]))
	}
}

// runKeys enumerates the full bindings whose outermost key is in the given
// rows of topKeys, binding each from its recorded positions, collecting
// the output and the binding counts in the executor.
func (ex *executor) runKeys(chunk []uint32, stride int) error {
	binding := make([]uint32, len(ex.ops))
	for ; len(chunk) > 0; chunk = chunk[stride:] {
		for i, op := range ex.ops[0] {
			ex.pos[op.at] = int(chunk[1+i])
		}
		if err := ex.bind(0, chunk[0], binding); err != nil {
			return err
		}
	}
	return ex.meter.Close()
}
