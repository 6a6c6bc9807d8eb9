package wcoj

// leapfrog is the k-way intersection at one variable: all iterators are
// open at the level keyed by that variable, and the leapfrog positions them
// on successive keys present in *every* iterator. Keys are aligned codes
// (see alignTries), so every comparison is an integer comparison. The
// classic invariant: the iterators, read circularly from p, are at
// non-decreasing keys, and iters[p] holds the smallest; search repeatedly
// seeks the smallest up to the largest until all keys agree.
type leapfrog struct {
	iters []*trieIter
	p     int
	done  bool
}

// init positions the intersection over iters at its first common key, if
// any. It takes ownership of the slice and reorders it in place; the
// executor keeps one leapfrog per variable and re-inits it on every descent,
// so enumeration allocates nothing per binding.
func (lf *leapfrog) init(iters []*trieIter) {
	lf.iters, lf.p, lf.done = iters, 0, false
	for _, it := range iters {
		if it.atEnd() {
			lf.done = true
			return
		}
	}
	// Insertion sort by current key: k is the handful of relations carrying
	// the variable.
	for i := 1; i < len(iters); i++ {
		for j := i; j > 0 && iters[j].key() < iters[j-1].key(); j-- {
			iters[j], iters[j-1] = iters[j-1], iters[j]
		}
	}
	lf.search()
}

// search restores the invariant: seek the smallest iterator to the largest
// key until every iterator agrees (a common key, not past it) or one runs
// out.
func (lf *leapfrog) search() {
	iters, p := lf.iters, lf.p
	last := p - 1
	if last < 0 {
		last = len(iters) - 1
	}
	max := iters[last].key()
	for {
		it := iters[p]
		if it.key() == max {
			lf.p = p
			return // all k iterators are at max: a common key
		}
		it.seek(max)
		if it.atEnd() {
			lf.done = true
			return
		}
		max = it.key()
		if p++; p == len(iters) {
			p = 0
		}
	}
}

// key returns the current common key; the leapfrog must not be done.
func (lf *leapfrog) key() uint32 {
	return lf.iters[lf.p].key()
}

// next advances past the current common key to the following one, if any.
func (lf *leapfrog) next() {
	it := lf.iters[lf.p]
	it.next()
	if it.atEnd() {
		lf.done = true
		return
	}
	if lf.p++; lf.p == len(lf.iters) {
		lf.p = 0
	}
	lf.search()
}
