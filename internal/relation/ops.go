package relation

import (
	"fmt"

	"repro/internal/govern"
)

// Join computes the natural join l ⋈ r. The output schema is l's columns
// followed by r's columns that are not in l. When the schemas share no
// attributes the result is the Cartesian product, matching the paper's
// convention that ⋈ degenerates to ×.
//
// Implementation: classic hash join. The smaller input is hashed on the
// common attributes; the larger side probes. With no common attributes the
// nested product is produced directly.
func Join(l, r *Relation) *Relation {
	out, err := JoinGoverned(nil, l, r)
	if err != nil {
		panic(err) // unreachable: a nil governor never aborts
	}
	return out
}

// JoinGoverned is Join charging every output tuple against the governor —
// one meter call per probe row, or per pair of a product, as the block
// kernels charge them; it aborts with the governor's typed error mid-join
// when a limit is exceeded, returning no partial result. A nil governor
// imposes no limits.
func JoinGoverned(g *govern.Governor, l, r *Relation) (*Relation, error) {
	scope, err := g.Begin("relation.Join")
	if err != nil {
		return nil, err
	}
	m := scope.Meter()
	common := l.schema.AttrSet().Intersect(r.schema.AttrSet())
	outSchema := joinSchema(l.schema, r.schema)
	out := New(outSchema)

	// Columns of r absent from l, in r's column order — the same order
	// joinSchema appends them to the output schema.
	var rOnlyPos []int
	for i, a := range r.schema.Attrs() {
		if !l.schema.Has(a) {
			rOnlyPos = append(rOnlyPos, i)
		}
	}

	if common.IsEmpty() {
		for _, lt := range l.tuples() {
			for _, rt := range r.tuples() {
				out.appendJoined(lt, rt, rOnlyPos)
				if err := m.Add(1); err != nil {
					return nil, err
				}
			}
		}
	} else {
		lPos, _ := l.schema.Positions(common)
		rPos, _ := r.schema.Positions(common)
		if err := hashJoinInto(out, l.tuples(), r.tuples(), lPos, rPos, rOnlyPos, m.Add); err != nil {
			return nil, err
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// hashJoinInto is JoinGoverned's hash-join core: it joins lRows with rRows
// on the key columns lPos/rPos, appending (l, r-only) rows to out, and calls
// visit once per probe row with the number of rows that probe emitted. The
// smaller side is hashed; if that is the right side the build/probe roles
// swap but the output column order does not.
func hashJoinInto(out *Relation, lRows, rRows []Tuple, lPos, rPos, rOnlyPos []int, visit func(emitted int) error) error {
	if len(lRows) <= len(rRows) {
		ht := make(map[string][]Tuple, len(lRows))
		for _, lt := range lRows {
			k := lt.keyAt(lPos)
			ht[k] = append(ht[k], lt)
		}
		for _, rt := range rRows {
			emitted := 0
			for _, lt := range ht[rt.keyAt(rPos)] {
				out.appendJoined(lt, rt, rOnlyPos)
				emitted++
			}
			if err := visit(emitted); err != nil {
				return err
			}
		}
	} else {
		ht := make(map[string][]Tuple, len(rRows))
		for _, rt := range rRows {
			k := rt.keyAt(rPos)
			ht[k] = append(ht[k], rt)
		}
		for _, lt := range lRows {
			emitted := 0
			for _, rt := range ht[lt.keyAt(lPos)] {
				out.appendJoined(lt, rt, rOnlyPos)
				emitted++
			}
			if err := visit(emitted); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendJoined concatenates lt with rt's rOnlyPos columns and inserts the
// result. Join of set inputs cannot create duplicates, so this bypasses the
// dedup map lookup cost only conceptually — Insert is still used for safety.
func (out *Relation) appendJoined(lt, rt Tuple, rOnlyPos []int) {
	row := make(Tuple, 0, len(lt)+len(rOnlyPos))
	row = append(row, lt...)
	for _, p := range rOnlyPos {
		row = append(row, rt[p])
	}
	out.MustInsert(row)
}

// joinSchema is l's columns followed by r's columns not in l.
func joinSchema(l, r *Schema) *Schema {
	attrs := append([]string(nil), l.Attrs()...)
	for _, a := range r.Attrs() {
		if !l.Has(a) {
			attrs = append(attrs, a)
		}
	}
	return MustSchema(attrs...)
}

// Semijoin computes l ⋉ r: the tuples of l that join with at least one tuple
// of r. The output schema is l's schema. With no common attributes, the
// result is l itself if r is nonempty and empty otherwise (the degenerate
// semantics of ⋉ as π_l(l ⋈ r)).
func Semijoin(l, r *Relation) *Relation {
	out, err := SemijoinGoverned(nil, l, r)
	if err != nil {
		panic(err) // unreachable: a nil governor never aborts
	}
	return out
}

// SemijoinGoverned is Semijoin under a governor. A semijoin's output is at
// most |l|, so it cannot blow up — but it still charges its output (the
// §2.3 cost counts semijoin heads) and honors cancellation: its meter is
// called once per scanned row, matched or not.
func SemijoinGoverned(g *govern.Governor, l, r *Relation) (*Relation, error) {
	scope, err := g.Begin("relation.Semijoin")
	if err != nil {
		return nil, err
	}
	m := scope.Meter()
	common := l.schema.AttrSet().Intersect(r.schema.AttrSet())
	lPos, _ := l.schema.Positions(common)
	rPos, _ := r.schema.Positions(common)
	var supported func(key string) bool // whether an l key has a match in r
	switch {
	case common.IsEmpty():
		supported = func(string) bool { return r.Len() > 0 }
	case l.Len() <= r.Len():
		// Hash the smaller (left) side: collect l's keys and scan r marking
		// which have support. The map stays |l|-sized even when r is huge.
		support := make(map[string]bool, l.Len())
		for _, lt := range l.tuples() {
			support[lt.keyAt(lPos)] = false
		}
		for _, rt := range r.tuples() {
			k := rt.keyAt(rPos)
			if _, interesting := support[k]; interesting {
				support[k] = true
			}
			if err := m.Add(0); err != nil {
				return nil, err
			}
		}
		supported = func(k string) bool { return support[k] }
	default:
		keys := make(map[string]struct{}, r.Len())
		for _, rt := range r.tuples() {
			keys[rt.keyAt(rPos)] = struct{}{}
		}
		supported = func(k string) bool { _, ok := keys[k]; return ok }
	}
	out := New(l.schema)
	for _, lt := range l.tuples() {
		kept := 0
		if supported(lt.keyAt(lPos)) {
			out.MustInsert(lt)
			kept = 1
		}
		if err := m.Add(kept); err != nil {
			return nil, err
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Project computes π_attrs(r), deduplicating. The attrs must all belong to
// r's schema; the output column order is the sorted attribute order.
func Project(r *Relation, attrs AttrSet) (*Relation, error) {
	return ProjectGoverned(nil, r, attrs)
}

// ProjectGoverned is Project under a governor: output tuples are charged
// against the budgets and cancellation is polled periodically during the
// scan.
func ProjectGoverned(g *govern.Governor, r *Relation, attrs AttrSet) (*Relation, error) {
	if !r.schema.AttrSet().ContainsAll(attrs) {
		return nil, fmt.Errorf("relation: projection attributes %s not all in schema %s",
			attrs, r.schema)
	}
	scope, err := g.Begin("relation.Project")
	if err != nil {
		return nil, err
	}
	pos, _ := r.schema.Positions(attrs)
	out := New(MustSchema(attrs...))
	m := scope.Meter()
	for _, t := range r.tuples() {
		row := make(Tuple, len(pos))
		for i, p := range pos {
			row[i] = t[p]
		}
		n := out.Len()
		out.MustInsert(row)
		if err := m.Add(out.Len() - n); err != nil {
			return nil, err
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// MustProject is Project that panics on error.
func MustProject(r *Relation, attrs AttrSet) *Relation {
	out, err := Project(r, attrs)
	if err != nil {
		panic(err)
	}
	return out
}

// JoinAll folds Join over the given relations left to right; it returns an
// error when called with no relations. JoinAll of one relation returns it
// unchanged.
func JoinAll(rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("relation: JoinAll of zero relations")
	}
	acc := rels[0]
	for _, r := range rels[1:] {
		acc = Join(acc, r)
	}
	return acc, nil
}
