package program

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

// paperDB builds the 4-cycle database used across the tests: links
// increment mod 3 plus a closing bottom tuple.
func paperDB(t *testing.T) *relation.Database {
	t.Helper()
	mk := func(scheme string) *relation.Relation { return relation.New(relation.SchemaOfRunes(scheme)) }
	r1, r2, r3, r4 := mk("ABC"), mk("CDE"), mk("EFG"), mk("GHA")
	for v := int64(0); v < 3; v++ {
		next := (v + 1) % 3
		for pay := int64(0); pay < 2; pay++ {
			for _, r := range []*relation.Relation{r1, r2, r3, r4} {
				r.MustInsert(relation.Ints(v, pay, next))
			}
		}
	}
	for _, r := range []*relation.Relation{r1, r2, r3, r4} {
		r.MustInsert(relation.Ints(-1, 0, -1))
	}
	return relation.MustDatabase(r1, r2, r3, r4)
}

// example2Program is the paper's Example 2: join opposite pairs, then join
// the results.
func example2Program() *Program {
	return &Program{
		Inputs: []string{"ABC", "CDE", "EFG", "GHA"},
		Stmts: []Stmt{
			{Op: OpJoin, Head: "X", Arg1: "ABC", Arg2: "EFG"},
			{Op: OpJoin, Head: "Y", Arg1: "CDE", Arg2: "GHA"},
			{Op: OpJoin, Head: "X", Arg1: "X", Arg2: "Y"},
		},
		Output: "X",
	}
}

// example6Program is the paper's derived program for the 4-cycle, built by
// hand (this package cannot import core).
func example6Program() *Program {
	return &Program{
		Inputs: []string{"ABC", "CDE", "EFG", "GHA"},
		Stmts: []Stmt{
			{Op: OpSemijoin, Head: "V", Arg1: "ABC", Arg2: "CDE"},
			{Op: OpProject, Head: "F", Arg1: "V", Proj: relation.NewAttrSet("C")},
			{Op: OpJoin, Head: "F", Arg1: "F", Arg2: "CDE"},
			{Op: OpProject, Head: "F", Arg1: "F", Proj: relation.NewAttrSet("C", "E")},
			{Op: OpSemijoin, Head: "F", Arg1: "F", Arg2: "EFG"},
			{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "F"},
			{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "EFG"},
			{Op: OpSemijoin, Head: "V", Arg1: "V", Arg2: "GHA"},
			{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "CDE"},
			{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "GHA"},
		},
		Output: "V",
	}
}

func TestExample2ComputesJoin(t *testing.T) {
	db := paperDB(t)
	p := example2Program()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	res, err := p.Apply(db)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !res.Output.Equal(db.Join()) {
		t.Error("Example 2 program did not compute ⋈D")
	}
	if len(res.Trace) != 3 {
		t.Errorf("trace has %d steps", len(res.Trace))
	}
}

func TestExample6ComputesJoin(t *testing.T) {
	db := paperDB(t)
	p := example6Program()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	res, err := p.Apply(db)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !res.Output.Equal(db.Join()) {
		t.Error("Example 6 program did not compute ⋈D")
	}
	if len(res.Trace) != 10 {
		t.Errorf("trace has %d steps, want 10", len(res.Trace))
	}
}

func TestCostAccounting(t *testing.T) {
	db := paperDB(t)
	p := example2Program()
	res, err := p.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	want := db.TotalTuples()
	for _, s := range res.Trace {
		want += s.Size
	}
	if res.Cost != want {
		t.Errorf("Cost = %d, want inputs+heads = %d", res.Cost, want)
	}
	// Cross-check against direct evaluation: |ABC ⋈ EFG| + |CDE ⋈ GHA| +
	// |⋈D| + inputs.
	x := relation.Join(db.Relation(0), db.Relation(2))
	y := relation.Join(db.Relation(1), db.Relation(3))
	full := relation.Join(x, y)
	explicit := db.TotalTuples() + x.Len() + y.Len() + full.Len()
	if res.Cost != explicit {
		t.Errorf("Cost = %d, want %d", res.Cost, explicit)
	}

	// A multiway statement's head is ⋈D itself: Σ|Rᵢ| + |⋈D|.
	multi := &Program{
		Inputs: []string{"ABC", "CDE", "EFG", "GHA"},
		Stmts: []Stmt{{Op: OpMultiway, Head: "W", Args: []string{"ABC", "CDE", "EFG", "GHA"},
			Order: strings.Split("ACEGBDFH", "")}},
		Output: "W",
	}
	res, err = multi.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(db.Join()) || res.Cost != db.TotalTuples()+res.Output.Len() {
		t.Errorf("multiway program: %d tuples at cost %d", res.Output.Len(), res.Cost)
	}
}

func TestDestructiveAssignment(t *testing.T) {
	db := paperDB(t)
	p := example2Program()
	// X is assigned twice; the final output must reflect the second
	// assignment, and the input relations must be untouched.
	before := db.Relation(0).Len()
	res, err := p.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation(0).Len() != before {
		t.Error("Apply mutated an input relation")
	}
	if res.Output.Schema().Len() != 8 {
		t.Errorf("output schema has %d attributes, want 8", res.Output.Schema().Len())
	}
}

func TestSemijoinIntoInputNameRebindsOnly(t *testing.T) {
	db := paperDB(t)
	p := &Program{
		Inputs: []string{"ABC", "CDE", "EFG", "GHA"},
		Stmts: []Stmt{
			// In-place §2.2 form: reduce ABC by CDE.
			{Op: OpSemijoin, Head: "ABC", Arg1: "ABC", Arg2: "CDE"},
			{Op: OpJoin, Head: "V", Arg1: "ABC", Arg2: "CDE"},
			{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "EFG"},
			{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "GHA"},
		},
		Output: "V",
	}
	res, err := p.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(db.Join()) {
		t.Error("program with in-place semijoin computed wrong join")
	}
	if db.Relation(0).Len() != 7 {
		t.Error("semijoin into input name mutated the input relation")
	}
}

func TestProjectStatement(t *testing.T) {
	db := paperDB(t)
	p := &Program{
		Inputs: []string{"ABC", "CDE", "EFG", "GHA"},
		Stmts: []Stmt{
			{Op: OpProject, Head: "P", Arg1: "ABC", Proj: relation.NewAttrSet("C")},
		},
		Output: "P",
	}
	res, err := p.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustProject(db.Relation(0), relation.NewAttrSet("C"))
	if !res.Output.Equal(want) {
		t.Error("project statement wrong")
	}
}

func TestValidateRules(t *testing.T) {
	inputs := []string{"ABC", "CDE"}
	cases := []struct {
		name string
		p    *Program
		ok   bool
	}{
		{"join head must be variable", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpJoin, Head: "ABC", Arg1: "ABC", Arg2: "CDE"}},
			Output: "ABC",
		}, false},
		{"project head must be variable", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpProject, Head: "CDE", Arg1: "ABC", Proj: relation.NewAttrSet("C")}},
			Output: "CDE",
		}, false},
		{"body variable must be defined earlier", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpJoin, Head: "V", Arg1: "W", Arg2: "CDE"}},
			Output: "V",
		}, false},
		{"semijoin in-place into input ok", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpSemijoin, Head: "ABC", Arg1: "ABC", Arg2: "CDE"}},
			Output: "ABC",
		}, true},
		{"semijoin defining a variable ok", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpSemijoin, Head: "V", Arg1: "ABC", Arg2: "CDE"}},
			Output: "V",
		}, true},
		{"semijoin head into unrelated input rejected", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpSemijoin, Head: "CDE", Arg1: "ABC", Arg2: "CDE"}},
			Output: "CDE",
		}, false},
		{"duplicate input names rejected", &Program{
			Inputs: []string{"ABC", "ABC"},
			Output: "ABC",
		}, false},
		{"empty output rejected", &Program{
			Inputs: inputs,
			Output: "",
		}, false},
		{"undefined output rejected", &Program{
			Inputs: inputs,
			Output: "Z",
		}, false},
		{"empty program with input output ok", &Program{
			Inputs: inputs,
			Output: "CDE",
		}, true},
		{"multiway join ok", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpMultiway, Head: "W", Args: inputs, Order: strings.Split("CABDE", "")}},
			Output: "W",
		}, true},
		{"multiway order naming an attribute twice rejected", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpMultiway, Head: "W", Args: []string{"ABC"}, Order: []string{"A", "A"}}},
			Output: "W",
		}, false},
		{"multiway join without operands rejected", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpMultiway, Head: "W", Order: []string{"A"}}},
			Output: "W",
		}, false},
		{"multiway undefined operand rejected", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpMultiway, Head: "W", Args: []string{"ABC", "NOPE"}, Order: strings.Split("ABC", "")}},
			Output: "W",
		}, false},
		{"multiway head must be variable", &Program{
			Inputs: inputs,
			Stmts:  []Stmt{{Op: OpMultiway, Head: "ABC", Args: []string{"ABC"}, Order: strings.Split("ABC", "")}},
			Output: "ABC",
		}, false},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestApplyArityMismatch(t *testing.T) {
	db := paperDB(t)
	p := &Program{Inputs: []string{"ABC"}, Output: "ABC"}
	if _, err := p.Apply(db); err == nil {
		t.Error("input-count mismatch accepted")
	}
}

func TestApplyBadProjection(t *testing.T) {
	db := paperDB(t)
	p := &Program{
		Inputs: []string{"ABC", "CDE", "EFG", "GHA"},
		Stmts:  []Stmt{{Op: OpProject, Head: "P", Arg1: "ABC", Proj: relation.NewAttrSet("Z")}},
		Output: "P",
	}
	if _, err := p.Apply(db); err == nil {
		t.Error("projection onto missing attribute accepted at run time")
	}
}

func TestStmtString(t *testing.T) {
	cases := []struct {
		s    Stmt
		want string
	}{
		{Stmt{Op: OpProject, Head: "F", Arg1: "V", Proj: relation.NewAttrSet("C", "E")}, "R(F) := π_CE R(V)"},
		{Stmt{Op: OpJoin, Head: "V", Arg1: "V", Arg2: "F"}, "R(V) := R(V) ⋈ R(F)"},
		{Stmt{Op: OpSemijoin, Head: "V", Arg1: "V", Arg2: "GHA"}, "R(V) := R(V) ⋉ R(GHA)"},
		{Stmt{Op: OpProject, Head: "P", Arg1: "IN", Proj: relation.NewAttrSet("x0", "x2")}, "R(P) := π_{x0,x2} R(IN)"},
		{Stmt{Op: OpMultiway, Head: "W", Args: []string{"ABC", "CDE", "EFG", "GHA"}, Order: strings.Split("ACEGBDFH", "")},
			"R(W) := ⋈_ACEGBDFH {R(ABC), R(CDE), R(EFG), R(GHA)}"},
		{Stmt{Op: OpMultiway, Head: "P", Args: []string{"IN", "{city,year}"}, Order: []string{"year", "city"}},
			"R(P) := ⋈_{year,city} {R(IN), R({city,year})}"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestProgramString(t *testing.T) {
	p := example2Program()
	s := p.String()
	if !strings.Contains(s, "R(X) := R(ABC) ⋈ R(EFG)") {
		t.Errorf("program String missing statement:\n%s", s)
	}
	if lines := strings.Count(s, "\n") + 1; lines != 3 {
		t.Errorf("program String has %d lines, want 3", lines)
	}
	empty := &Program{Inputs: []string{"ABC"}, Output: "ABC"}
	if !strings.Contains(empty.String(), "empty program") {
		t.Errorf("empty program String = %q", empty.String())
	}
}

func TestOpString(t *testing.T) {
	if OpProject.String() != "π" || OpJoin.String() != "⋈" || OpSemijoin.String() != "⋉" {
		t.Error("Op.String wrong")
	}
}

func TestEmptyProgramIdentity(t *testing.T) {
	db := paperDB(t)
	p := &Program{Inputs: []string{"ABC", "CDE", "EFG", "GHA"}, Output: "EFG"}
	res, err := p.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(db.Relation(2)) {
		t.Error("empty program output wrong")
	}
	if res.Cost != db.TotalTuples() {
		t.Errorf("empty program cost = %d, want %d", res.Cost, db.TotalTuples())
	}
}

func TestOpCounts(t *testing.T) {
	p := example6Program()
	projects, joins, semijoins := p.OpCounts()
	if projects != 2 || joins != 5 || semijoins != 3 {
		t.Errorf("OpCounts = %d/%d/%d, want 2/5/3", projects, joins, semijoins)
	}
}
