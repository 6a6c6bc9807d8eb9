package program

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/govern"
	"repro/internal/relation"
)

// rel builds a relation over the single-rune scheme from rows.
func rel(scheme string, rows ...relation.Tuple) *relation.Relation {
	r := relation.New(relation.SchemaOfRunes(scheme))
	for _, row := range rows {
		r.MustInsert(row)
	}
	return r
}

// TestExecutorEdgeCases runs the executor's corner shapes against the
// tuple-map oracle at every worker count (with the range-split path forced
// on), plus a per-row check of what the shape is there to pin.
func TestExecutorEdgeCases(t *testing.T) {
	defer relation.SetParallelThreshold(0)()
	paper := paperDB(t)
	names := []string{"ABC", "CDE", "EFG", "GHA"}
	x := rel("AB", relation.Ints(1, 2), relation.Ints(3, 4), relation.Ints(5, 6))
	y := rel("CD", relation.Ints(7, 8), relation.Ints(9, 10))
	mixedL := rel("AB",
		relation.Tuple{relation.Int(1), relation.String("x")},
		relation.Tuple{relation.Int(2), relation.String("y")},
		relation.Tuple{relation.String("1"), relation.Int(7)},
		relation.Tuple{relation.Int(4), relation.Int(3)})
	mixedR := rel("BC",
		relation.Tuple{relation.String("y"), relation.Int(10)},
		relation.Tuple{relation.String("z"), relation.Int(11)},
		relation.Tuple{relation.Int(3), relation.String("x")},
		relation.Tuple{relation.Int(7), relation.String("1")},
		relation.Tuple{relation.Int(8), relation.Int(8)})

	cases := []struct {
		name string
		db   *relation.Database
		p    *Program
		// encoded is how many input relations the run must encode.
		encoded int
		check   func(t *testing.T, db *relation.Database, res *Result, g *govern.Governor)
	}{
		{
			name: "zero statements: output is an input, by pointer, nothing encoded",
			db:   paper, p: &Program{Inputs: names, Output: "EFG"},
			check: func(t *testing.T, db *relation.Database, res *Result, _ *govern.Governor) {
				if res.Output != db.Relation(2) {
					t.Error("untouched input was copied instead of returned by pointer")
				}
			},
		},
		{
			name: "output names a semijoined (rebound) input",
			db:   paper, encoded: 2,
			p: &Program{Inputs: names, Output: "ABC", Stmts: []Stmt{
				{Op: OpSemijoin, Head: "ABC", Arg1: "ABC", Arg2: "CDE"},
			}},
			check: func(t *testing.T, db *relation.Database, res *Result, _ *govern.Governor) {
				if res.Output == db.Relation(0) || !res.Output.Equal(relation.Semijoin(db.Relation(0), db.Relation(1))) {
					t.Error("output is not the rebound ABC ⋉ CDE")
				}
			},
		},
		{
			name: "generalized semijoin: head differs from first operand (Example 6, statement 1)",
			db:   paper, encoded: 2,
			p: &Program{Inputs: names, Output: "V", Stmts: []Stmt{
				{Op: OpSemijoin, Head: "V", Arg1: "ABC", Arg2: "CDE"},
			}},
		},
		{
			name: "join without common attributes: the product is charged per output tuple",
			db:   relation.MustDatabase(x, y), encoded: 2,
			p: &Program{Inputs: []string{"X", "Y"}, Output: "P", Stmts: []Stmt{
				{Op: OpJoin, Head: "P", Arg1: "X", Arg2: "Y"},
			}},
			check: func(t *testing.T, _ *relation.Database, res *Result, g *govern.Governor) {
				if res.Output.Len() != 6 || g.Produced() != 6 {
					t.Errorf("product has %d tuples, charged %d; want 6 and 6", res.Output.Len(), g.Produced())
				}
			},
		},
		{
			name: "projection onto no attributes",
			db:   relation.MustDatabase(x, y), encoded: 1,
			p: &Program{Inputs: []string{"X", "Y"}, Output: "B", Stmts: []Stmt{
				{Op: OpProject, Head: "B", Arg1: "X"},
			}},
			check: func(t *testing.T, _ *relation.Database, res *Result, _ *govern.Governor) {
				if res.Output.Len() != 1 || res.Output.Schema().Len() != 0 {
					t.Errorf("π_∅ gave %d tuples over %d attributes; want the one empty tuple",
						res.Output.Len(), res.Output.Schema().Len())
				}
			},
		},
		{
			name: "empty input relation",
			db:   relation.MustDatabase(x, rel("BC"), rel("CD", relation.Ints(1, 1))), encoded: 3,
			p: &Program{Inputs: []string{"X", "E", "Z"}, Output: "V", Stmts: []Stmt{
				{Op: OpSemijoin, Head: "V", Arg1: "X", Arg2: "E"},
				{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "E"},
				{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "Z"},
			}},
		},
		{
			name: "mixed Int/String columns with partly overlapping dictionaries",
			db:   relation.MustDatabase(mixedL, mixedR), encoded: 2,
			p: &Program{Inputs: []string{"L", "R"}, Output: "J", Stmts: []Stmt{
				{Op: OpSemijoin, Head: "S", Arg1: "L", Arg2: "R"},
				{Op: OpSemijoin, Head: "R", Arg1: "R", Arg2: "S"},
				{Op: OpJoin, Head: "J", Arg1: "S", Arg2: "R"},
			}},
			check: func(t *testing.T, _ *relation.Database, res *Result, _ *govern.Governor) {
				if res.Output.Len() != 3 {
					t.Errorf("mixed-kind join has %d tuples, want 3 (y, 7 and 3 match; \"1\" ≠ 1)", res.Output.Len())
				}
			},
		},
		{
			name: "an input several statements read is encoded once",
			db:   paper, p: example6Program(), encoded: 4,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantG := govern.New(govern.Limits{MaxTuples: 1 << 40})
			want, err := c.p.ApplyOracle(c.db, wantG)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				counts, restore := CountEncodings()
				g := govern.New(govern.Limits{MaxTuples: 1 << 40})
				got, err := c.p.ApplyParallelGoverned(c.db, g, workers)
				restore()
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if !got.Output.Equal(want.Output) || got.Cost != want.Cost || g.Produced() != wantG.Produced() {
					t.Fatalf("%d workers: output %d tuples, cost %d, charged %d; oracle %d, %d, %d", workers,
						got.Output.Len(), got.Cost, g.Produced(), want.Output.Len(), want.Cost, wantG.Produced())
				}
				for i, step := range got.Trace {
					if step.Size != want.Trace[i].Size || !slices.Equal(step.Schema.Attrs(), want.Trace[i].Schema.Attrs()) {
						t.Fatalf("%d workers: statement %d head %s/%d, oracle %s/%d", workers, i+1,
							step.Schema, step.Size, want.Trace[i].Schema, want.Trace[i].Size)
					}
				}
				if len(counts) != c.encoded {
					t.Errorf("%d workers: %d inputs encoded, want %d", workers, len(counts), c.encoded)
				}
				for r, n := range counts {
					if n != 1 {
						t.Errorf("%d workers: input %s encoded %d times", workers, r.Schema(), n)
					}
				}
				if total := g.Produced(); total > 1 { // a budget of 0 means unlimited
					short := govern.New(govern.Limits{MaxTuples: total - 1})
					if res, err := c.p.ApplyParallelGoverned(c.db, short, workers); res != nil || !errors.Is(err, govern.ErrTupleBudget) {
						t.Errorf("%d workers: budget %d of %d charged: result %v, error %v; want ErrTupleBudget",
							workers, total-1, total, res, err)
					}
				}
				if c.check != nil {
					c.check(t, c.db, got, g)
				}
			}
		})
	}
}
