package jointree

import (
	"repro/internal/govern"
	"repro/internal/relation"
)

// EvalColumnarGoverned is EvalGoverned over the columnar kernels: each leaf
// is the relation's resident dictionary-compressed ColBlock (encoded by the
// snapshot's first reader, see relation.Relation.Block) and every join node
// runs the vectorized JoinBlocksGoverned kernel; only the root decodes back
// to a tuple-map Relation. Result, cost, governor charges, and budget-abort
// behavior are identical to EvalGoverned — the columnar differential
// gauntlet enforces this — so the two evaluators are interchangeable
// observationally and differ only in wall time and allocation profile.
func (t *Tree) EvalColumnarGoverned(db *relation.Database, g *govern.Governor) (*relation.Relation, int, error) {
	out, cost, err := t.evalColumnar(db, g)
	if err != nil {
		return nil, 0, err
	}
	return out.ToRelation(), cost, nil
}

func (t *Tree) evalColumnar(db *relation.Database, g *govern.Governor) (*relation.ColBlock, int, error) {
	if t.IsLeaf() {
		b := db.Relation(t.Leaf).Block()
		return b, b.Len(), nil
	}
	l, cl, err := t.Left.evalColumnar(db, g)
	if err != nil {
		return nil, 0, err
	}
	r, cr, err := t.Right.evalColumnar(db, g)
	if err != nil {
		return nil, 0, err
	}
	out, err := relation.JoinBlocksGoverned(g, l, r)
	if err != nil {
		return nil, 0, err
	}
	return out, out.Len() + cl + cr, nil
}
