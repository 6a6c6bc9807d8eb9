package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// Example3Costs reproduces Example 3 (experiment E1): for each scale q it
// reports the cost of the optimal (non-CPF) join expression, the cheapest
// CPF expression, and the cheapest linear expression on the paper-shaped
// cycle family, all computed exactly from the family's closed-form sizes.
// For every q in measured, the derived program (Algorithms 1+2 applied to
// the optimal tree) is additionally executed on the actual database and its
// measured cost and the measured optimal cost are cross-checked against the
// closed forms.
//
// The paper's k-th instance is q = 10^k: optimal < 10^{4k+1}, every CPF and
// linear expression > 2·10^{5k}, and the derived program < 2·10^{4k}
// (Example 6). The shape reproduced here: optimal ≈ 2q⁴, CPF and linear ≈
// q⁵/4, program ≈ q⁴/2 — same winners, same growth, gap Θ(q).
func Example3Costs(measured, analyticOnly []int64) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Example 3 — cost of optimal vs cheapest CPF / linear expressions and the derived program",
		Columns: []string{
			"q", "|R1..R4|", "optimal", "optimal CPF?", "cheapest CPF", "cheapest linear",
			"CPF/opt", "program (measured)", "prog bound r(a+5)·opt",
		},
	}
	appendScale := func(q int64, measure bool) error {
		spec, err := workload.Example3(q)
		if err != nil {
			return err
		}
		sizer, err := spec.AnalyticSizer()
		if err != nil {
			return err
		}
		opt, err := optimal(sizer, optimizer.SpaceAll)
		if err != nil {
			return err
		}
		cpf, err := optimal(sizer, optimizer.SpaceCPF)
		if err != nil {
			return err
		}
		lin, err := optimal(sizer, optimizer.SpaceLinear)
		if err != nil {
			return err
		}
		h := sizer.Hypergraph()
		qf := core.QuasiFactor(h.Len(), h.Attrs().Len())
		progCell := "—"
		if measure {
			progCost, optMeasured, err := measureExample3Program(spec, opt)
			if err != nil {
				return err
			}
			if optMeasured != opt.Cost {
				return fmt.Errorf("experiments: measured optimal %d != analytic %d at q=%d", optMeasured, opt.Cost, q)
			}
			progCell = fmt.Sprint(progCost)
		}
		sz := spec.Sizes()
		optCPF := "no"
		if opt.Tree.IsCPF(h) {
			optCPF = "yes"
		}
		t.AddRow(q, fmt.Sprintf("%d/%d/%d/%d", sz[0], sz[1], sz[2], sz[3]),
			opt.Cost, optCPF, cpf.Cost, lin.Cost, ratio(cpf.Cost, opt.Cost),
			progCell, int64(qf)*opt.Cost)
		return nil
	}
	for _, q := range measured {
		if err := appendScale(q, true); err != nil {
			return nil, err
		}
	}
	for _, q := range analyticOnly {
		if err := appendScale(q, false); err != nil {
			return nil, err
		}
	}
	t.AddNote("paper (q = 10^k): optimal < 10^{4k+1}, every CPF/linear expression > 2·10^{5k}, derived program < 2·10^{4k}")
	t.AddNote("reproduced shape: optimal ≈ 2q⁴ (opposite-pair Cartesian products), CPF/linear ≈ q⁵/4, program ≈ q⁴/2; gap grows Θ(q)")
	t.AddNote("constants differ from the paper's by a small factor (its family is ≈2× our payloads); the Θ(q⁴) vs Θ(q⁵) separation is the claim")
	t.AddNote("measured rows execute the derived program on the actual database and cross-check the analytic optimal cost")
	return t, nil
}

// measureExample3Program builds the database at the spec's scale, derives
// the program from the optimal tree via Algorithms 1+2, runs it, and
// returns (program cost, measured optimal-tree cost).
func measureExample3Program(spec workload.CycleSpec, opt optimizer.Plan) (progCost, optCost int64, err error) {
	db, err := spec.CycleDatabase()
	if err != nil {
		return 0, 0, err
	}
	h := hypergraph.OfScheme(db)
	d, err := core.DeriveFromTree(opt.Tree, h, nil)
	if err != nil {
		return 0, 0, err
	}
	res, err := d.Program.Apply(db)
	if err != nil {
		return 0, 0, err
	}
	if res.Output.Len() != 1 {
		return 0, 0, fmt.Errorf("experiments: program computed %d tuples, want 1", res.Output.Len())
	}
	return int64(res.Cost), int64(opt.Tree.Cost(db)), nil
}

// optimal is optimizer.Optimal with |⋈D|, which the search leaves out,
// added to the plan's cost: the paper's cost(E(D)), which the tables print.
func optimal(c optimizer.Sizer, space optimizer.Space) (optimizer.Plan, error) {
	p, err := optimizer.Optimal(c, space)
	if err == nil {
		var root int64
		root, err = c.Size(c.Hypergraph().Full())
		p.Cost += root
	}
	return p, err
}
