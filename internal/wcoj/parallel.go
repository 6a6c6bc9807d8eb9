package wcoj

import (
	"sync"
	"sync/atomic"

	"repro/internal/govern"
)

// enumerateParallel splits the outermost variable's key range across
// workers: the depth-0 intersection keys are computed once (cheap — one
// leapfrog pass over the top trie levels), partitioned into contiguous
// chunks, and each worker enumerates its chunk with its own iterators over
// the shared tries. All workers charge the one shared scope (OpScope.Add is
// atomic), so budgets and the charged totals are identical to the
// sequential run; the chunks bind disjoint outermost keys, so the
// concatenated outputs are disjoint too — and, the chunks being ascending,
// in the sequential run's row order.
func enumerateParallel(order []string, tries []*trieIndex, scope *govern.OpScope, workers int, bindings []atomic.Int64) (*emitter, error) {
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

	parts := make([]*emitter, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous ranges keep every worker's seeks forward-only.
		chunk := keys[w*len(keys)/workers : (w+1)*len(keys)/workers]
		wg.Add(1)
		go func(w int, chunk []uint32) {
			defer wg.Done()
			parts[w], errs[w] = runKeys(order, tries, chunk, scope, bindings)
		}(w, chunk)
	}
	wg.Wait()
	out := newEmitter(len(order), scope)
	for w, err := range errs {
		if err != nil {
			return nil, err
		}
		out.n += parts[w].n
	}
	for v := range out.cols {
		out.cols[v] = make([]uint32, 0, out.n)
		for _, part := range parts {
			out.cols[v] = append(out.cols[v], part.cols[v]...)
		}
	}
	return out, nil
}

// topKeys returns the ascending intersection of the outermost variable's
// keys across the relations containing it.
func topKeys(order []string, tries []*trieIndex, scope *govern.OpScope) ([]uint32, error) {
	ex := newExecutor(order, tries, nil)
	var keys []uint32
	for lf := ex.openLevel(0); !lf.done; lf.next() {
		if err := scope.Add(0); err != nil {
			return nil, err
		}
		keys = append(keys, lf.key())
	}
	return keys, nil
}

// runKeys enumerates the full bindings whose outermost key lies in the
// given ascending chunk, collecting the output locally. bindings, when
// non-nil, receives this worker's share of the per-variable counts.
func runKeys(order []string, tries []*trieIndex, chunk []uint32, scope *govern.OpScope, bindings []atomic.Int64) (*emitter, error) {
	ex := newExecutor(order, tries, bindings)
	rels := ex.byVar[0]
	for _, r := range rels {
		ex.iters[r].open()
	}
	out := newEmitter(len(order), scope)
	binding := make([]uint32, len(order))
	for _, key := range chunk {
		if err := scope.Add(0); err != nil {
			return nil, err
		}
		// Every chunk key is in the depth-0 intersection, so each seek lands
		// exactly on it.
		for _, r := range rels {
			ex.iters[r].seek(key)
		}
		binding[0] = key
		if bindings != nil {
			bindings[0].Add(1)
		}
		if err := ex.run(1, binding, scope, out.emit); err != nil {
			return nil, err
		}
	}
	return out, nil
}
