package ivm

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/program"
	"repro/internal/relation"
)

// step is one differentiated statement: the delta rule for a join,
// semijoin, or projection, bound to its SSA operand nodes and the indexes
// the rule probes. The program's destructive assignment is compiled away:
// every statement head becomes a fresh node, so "R(V) := R(V) ⋉ R(S)"
// reads the old V node and writes a new one.
type step struct {
	op    program.Op
	label string
	out   *node
	arg1  *node
	arg2  *node // nil for projections

	// projPos are the output columns' positions in arg1 (projections).
	projPos []int
	// pos1/pos2 are the common attributes' positions in arg1/arg2, in
	// sorted attribute order (joins and semijoins), and only2 the arg2
	// columns absent from arg1, in arg2 column order (joins).
	pos1, pos2 []int
	only2      []int
	// idx1 indexes arg1 on pos1; idx2 indexes arg2 on pos2.
	idx1, idx2 *nodeIndex
}

// View is one compiled, materialized continuous query: the delta program
// derived from engine.PlanFor's program, the counted state of every node,
// and the batch application machinery in apply.go. Construct with Compile; a
// View is not safe for concurrent use.
type View struct {
	fingerprint string

	nodes  []*node
	inputs []*node // canonical edge order
	// inputOf maps an original relation index (the order the database was
	// registered with, which is what ingest batches address) to its
	// canonical input node.
	inputOf []int
	steps   []*step
	out     *node
}

// Compile derives the delta program for ⋈D over db's scheme from the plan's
// program. The program route is forced (engine.StrategyProgram): connected
// schemes get the paper's derived join/semijoin/project program, and
// disconnected schemes take PlanFor's expression fallback, whose program is
// join-only (the join delta rule handles the Cartesian, no-common-attribute
// case as a single-bucket probe). The instance steers optimizer search, but
// the compiled view is valid for every instance over the scheme — Theorem 1
// — which is what lets Rebuild reload it from any later catalog.
func Compile(db *relation.Database) (*View, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("ivm: empty database")
	}
	plan, err := engine.PlanFor(db, engine.Options{Strategy: engine.StrategyProgram})
	if err != nil {
		return nil, err
	}
	h := hypergraph.OfScheme(db)
	perm := h.CanonicalOrder()
	cdb, err := db.Restrict(perm)
	if err != nil {
		return nil, err
	}
	v := &View{fingerprint: plan.Fingerprint}
	v.inputs = make([]*node, cdb.Len())
	v.inputOf = make([]int, len(perm))
	for ci, orig := range perm {
		v.inputs[ci] = v.newNode(cdb.Relation(ci).Schema(), fmt.Sprintf("input %d", orig))
		v.inputOf[orig] = ci
	}
	if err := v.compileProgram(plan.Program); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *View) newNode(schema *relation.Schema, label string) *node {
	nd := &node{
		id:     len(v.nodes),
		label:  label,
		schema: schema,
		rows:   make(map[string]*crow),
	}
	v.nodes = append(v.nodes, nd)
	return nd
}

// ErrNoDeltaRule is returned by Compile for a program statement the delta
// rules do not cover: the multiway join, which no served view plan contains.
var ErrNoDeltaRule = errors.New("ivm: statement has no delta rule")

// compileProgram walks the program in SSA form: an environment maps each
// live name to the node currently holding it, and every statement (re)binds
// its head to a fresh node.
func (v *View) compileProgram(p *program.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(p.Inputs) != len(v.inputs) {
		return fmt.Errorf("ivm: program has %d inputs, scheme has %d relations", len(p.Inputs), len(v.inputs))
	}
	env := make(map[string]*node, len(p.Inputs)+len(p.Stmts))
	for i, name := range p.Inputs {
		env[name] = v.inputs[i]
	}
	for i, st := range p.Stmts {
		if st.Op == program.OpMultiway {
			return fmt.Errorf("%w: statement %d (%s)", ErrNoDeltaRule, i+1, st)
		}
		// Validate has checked every operand is bound.
		args := make([]*node, 0, 2)
		for _, name := range st.Reads() {
			args = append(args, env[name])
		}
		var out *node
		switch st.Op {
		case program.OpProject:
			pos, err := args[0].schema.Positions(st.Proj)
			if err != nil {
				return fmt.Errorf("ivm: statement %d (%s): %w", i+1, st, err)
			}
			out = v.newNode(relation.MustSchema(st.Proj...), st.String())
			v.steps = append(v.steps, &step{
				op: program.OpProject, label: st.String(),
				out: out, arg1: args[0], projPos: pos,
			})
		case program.OpJoin:
			out = v.newNode(joinSchema(args[0].schema, args[1].schema), st.String())
			v.steps = append(v.steps, v.joinStep(st.String(), out, args[0], args[1]))
		case program.OpSemijoin:
			out = v.newNode(args[0].schema, st.String())
			v.steps = append(v.steps, v.semijoinStep(st.String(), out, args[0], args[1]))
		}
		env[st.Head] = out
	}
	v.out = env[p.Output]
	return nil
}

// joinStep builds a join step and registers its probe indexes: arg2 keyed
// by the common attributes for the ΔX side, arg1 likewise for the ΔY side.
func (v *View) joinStep(label string, out, a1, a2 *node) *step {
	common := a1.schema.AttrSet().Intersect(a2.schema.AttrSet())
	pos1, _ := a1.schema.Positions(common)
	pos2, _ := a2.schema.Positions(common)
	var only2 []int
	for i, a := range a2.schema.Attrs() {
		if !a1.schema.Has(a) {
			only2 = append(only2, i)
		}
	}
	return &step{
		op: program.OpJoin, label: label,
		out: out, arg1: a1, arg2: a2,
		pos1: pos1, pos2: pos2, only2: only2,
		idx1: a1.index(pos1), idx2: a2.index(pos2),
	}
}

// semijoinStep builds a semijoin step: arg2 indexed by the common
// attributes answers the support test, arg1 indexed likewise locates the
// tuples a flipped key affects.
func (v *View) semijoinStep(label string, out, a1, a2 *node) *step {
	common := a1.schema.AttrSet().Intersect(a2.schema.AttrSet())
	pos1, _ := a1.schema.Positions(common)
	pos2, _ := a2.schema.Positions(common)
	return &step{
		op: program.OpSemijoin, label: label,
		out: out, arg1: a1, arg2: a2,
		pos1: pos1, pos2: pos2,
		idx1: a1.index(pos1), idx2: a2.index(pos2),
	}
}

// joinSchema mirrors the relation package's natural-join column order: l's
// columns followed by r's columns not in l.
func joinSchema(l, r *relation.Schema) *relation.Schema {
	attrs := append([]string(nil), l.Attrs()...)
	for _, a := range r.Attrs() {
		if !l.Has(a) {
			attrs = append(attrs, a)
		}
	}
	return relation.MustSchema(attrs...)
}

// Fingerprint returns the canonical scheme fingerprint the view was
// compiled for.
func (v *View) Fingerprint() string { return v.fingerprint }

// Steps returns the number of delta-program steps (0 for a single-relation
// view, whose output is the input itself).
func (v *View) Steps() int { return len(v.steps) }

// OpCounts returns the number of steps per operator, in the order
// (projections, joins, semijoins).
func (v *View) OpCounts() (projects, joins, semijoins int) {
	for _, s := range v.steps {
		switch s.op {
		case program.OpProject:
			projects++
		case program.OpJoin:
			joins++
		case program.OpSemijoin:
			semijoins++
		}
	}
	return projects, joins, semijoins
}

// ResultCount returns the current result cardinality without
// materializing.
func (v *View) ResultCount() int { return len(v.out.rows) }

// Result materializes the current view result: the support of the output
// node's counted state, which equals ⋈D for the maintained catalog. The
// counted rows are keyed by their tuples, so they are distinct already.
func (v *View) Result() *relation.Relation {
	rows := make([]relation.Tuple, 0, len(v.out.rows))
	for _, c := range v.out.rows {
		rows = append(rows, c.t)
	}
	out, err := relation.NewFromDistinctRows(v.out.schema, rows)
	if err != nil {
		panic(err) // unreachable: every counted row has the node's arity
	}
	return out
}
