package wcoj

import (
	"sync"

	"repro/internal/govern"
)

// enumerateParallel splits the outermost variable's key range across
// workers: the depth-0 intersection keys are computed once (cheap — one
// leapfrog pass over the top trie levels), partitioned into contiguous
// chunks, and each worker enumerates its chunk with its own iterators over
// the shared tries and its own meter on the one scope, so the charged totals
// and whether a budget aborts are those of the sequential run; the chunks
// bind disjoint outermost keys, so the concatenated outputs are disjoint
// too — and, the chunks being ascending, in the sequential run's row order.
// bindings, when non-nil, receives the sum of the workers' private binding
// counts once they finish.
func enumerateParallel(order []string, tries []*trieIndex, scope *govern.OpScope, workers int, bindings []int64) (*emitter, error) {
	keys, err := topKeys(order, tries, scope)
	if err != nil {
		return nil, err
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers < 2 {
		return enumerate(order, tries, scope, bindings)
	}

	parts := make([]*executor, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous ranges keep every worker's seeks forward-only.
		chunk := keys[w*len(keys)/workers : (w+1)*len(keys)/workers]
		var own []int64
		if bindings != nil {
			own = make([]int64, len(order))
		}
		parts[w] = newExecutor(order, tries, scope, own)
		wg.Add(1)
		go func(w int, chunk []uint32) {
			defer wg.Done()
			errs[w] = parts[w].runKeys(chunk)
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
// keys across the relations containing it.
func topKeys(order []string, tries []*trieIndex, scope *govern.OpScope) ([]uint32, error) {
	ex := newExecutor(order, tries, scope, nil)
	var keys []uint32
	for lf := ex.openLevel(0); !lf.done; lf.next() {
		if err := ex.meter.Add(0); err != nil {
			return nil, err
		}
		keys = append(keys, lf.key())
	}
	return keys, ex.meter.Close()
}

// runKeys enumerates the full bindings whose outermost key lies in the
// given ascending chunk, collecting the output and the binding counts in the
// executor.
func (ex *executor) runKeys(chunk []uint32) error {
	rels := ex.byVar[0]
	for _, r := range rels {
		ex.iters[r].open()
	}
	binding := make([]uint32, len(ex.order))
	for _, key := range chunk {
		if err := ex.meter.Add(0); err != nil {
			return err
		}
		// Every chunk key is in the depth-0 intersection, so each seek lands
		// exactly on it.
		for _, r := range rels {
			ex.iters[r].seek(key)
		}
		binding[0] = key
		if ex.bindings != nil {
			ex.bindings[0]++
		}
		if err := ex.run(1, binding); err != nil {
			return err
		}
	}
	return ex.meter.Close()
}
