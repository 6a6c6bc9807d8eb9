package program

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

var paperInputs = []string{"ABC", "CDE", "EFG", "GHA"}

func TestParseExample6RoundTrip(t *testing.T) {
	text := `
R(V) := R(ABC) ⋉ R(CDE)
R(F) := π_C R(V)
R(F) := R(F) ⋈ R(CDE)
R(F) := π_CE R(F)
R(F) := R(F) ⋉ R(EFG)
R(V) := R(V) ⋈ R(F)
R(V) := R(V) ⋈ R(EFG)
R(V) := R(V) ⋉ R(GHA)
R(V) := R(V) ⋈ R(CDE)
R(V) := R(V) ⋈ R(GHA)
`
	p, err := Parse(text, paperInputs, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 10 {
		t.Fatalf("statements = %d, want 10", p.Len())
	}
	if p.Output != "V" {
		t.Errorf("output = %q, want V (last head)", p.Output)
	}
	// Printing and reparsing yields the same program text.
	again, err := Parse(p.String(), paperInputs, p.Output)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again.String() != p.String() {
		t.Errorf("round trip changed the program:\n%s\nvs\n%s", again, p)
	}
	// The parsed program runs and computes ⋈D.
	db := paperDB(t)
	res, err := p.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(db.Join()) {
		t.Error("parsed Example 6 program computed wrong join")
	}
}

func TestParseASCIISpellings(t *testing.T) {
	text := `
R(X) := R(ABC) |><| R(EFG)
R(Y) := R(CDE) * R(GHA)
X := X |><| Y
`
	// "*" is not an accepted spelling for ⋈ in programs (it is in join
	// expressions) — the middle line must fail.
	if _, err := Parse(text, paperInputs, "X"); err == nil {
		t.Fatal("'*' accepted as a program operator")
	}
	ok := `
R(X) := R(ABC) |><| R(EFG)
R(Y) := R(CDE) |><| R(GHA)
X := X <| Y
`
	p, err := Parse(ok, paperInputs, "X")
	if err != nil {
		t.Fatal(err)
	}
	if p.Stmts[2].Op != OpSemijoin {
		t.Errorf("third statement op = %v, want ⋉", p.Stmts[2].Op)
	}
}

func TestParseBracedAttrs(t *testing.T) {
	p, err := Parse("R(P) := π_{x0, x2} R(IN)", []string{"IN"}, "P")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stmts[0].Proj.Equal(relation.NewAttrSet("x0", "x2")) {
		t.Errorf("Proj = %v", p.Stmts[0].Proj)
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	text := `
# reduce first
R(V) := R(ABC) ⋉ R(CDE)

-- then join everything
R(V) := R(V) ⋈ R(CDE)
R(V) := R(V) ⋈ R(EFG)
R(V) := R(V) ⋈ R(GHA)
`
	p, err := Parse(text, paperInputs, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Errorf("statements = %d, want 4", p.Len())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"R(V) = R(ABC) ⋈ R(CDE)",    // missing :=
		"R(V) := R(ABC)",            // no operator
		"R(V) := π_C",               // projection without operand
		"R() := R(ABC) ⋈ R(CDE)",    // empty head
		"R(V) := R(ABC) ⋈ R(NOPE)",  // undefined operand (validation)
		"R(ABC) := R(ABC) ⋈ R(CDE)", // join head must be a variable
	}
	for _, c := range cases {
		if _, err := Parse(c, paperInputs, ""); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", c)
		}
	}
	if _, err := Parse("", paperInputs, ""); err == nil {
		t.Error("empty program without explicit output accepted")
	}
	if _, err := Parse("", paperInputs, "ABC"); err != nil {
		t.Errorf("empty program with explicit input output rejected: %v", err)
	}
}

func TestParseRejectsJunkRefs(t *testing.T) {
	if _, err := Parse("R(V) := two words ⋈ R(CDE)", paperInputs, ""); err == nil {
		t.Error("junk operand accepted")
	}
	if !strings.Contains(Stmt{Op: OpJoin, Head: "V", Arg1: "A", Arg2: "B"}.String(), "⋈") {
		t.Error("sanity: join prints with ⋈")
	}
}

// TestParseMultiwayRoundTrip: a multiway statement keeps its operand list
// and its variable order (an order, not a set) through Parse, prints in the
// paper's style, reparses to itself from either spelling, and runs.
func TestParseMultiwayRoundTrip(t *testing.T) {
	const text = "R(W) := ⋈_ACEGBDFH {R(ABC), R(CDE), R(EFG), R(GHA)}"
	p, err := Parse(text, paperInputs, "")
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stmts[0]
	if s.Op != OpMultiway || strings.Join(s.Args, " ") != "ABC CDE EFG GHA" || strings.Join(s.Order, "") != "ACEGBDFH" {
		t.Fatalf("parsed %+v", s)
	}
	if p.String() != text {
		t.Errorf("printed %q, want %q", p.String(), text)
	}
	ascii, err := Parse("W := |><|_ACEGBDFH {ABC, R(CDE),EFG , R(GHA)}", paperInputs, "")
	if err != nil {
		t.Fatal(err)
	}
	if ascii.String() != text {
		t.Errorf("ASCII spelling printed %q, want %q", ascii.String(), text)
	}
	db := paperDB(t)
	res, err := p.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(db.Join()) || res.Cost != db.TotalTuples()+res.Output.Len() {
		t.Errorf("multiway program: %d tuples at cost %d", res.Output.Len(), res.Cost)
	}

	braced := "R(P) := ⋈_{year,city} {R(IN), R({city,year})}"
	q, err := Parse(braced, []string{"IN", "{city,year}"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Stmts[0]; strings.Join(got.Order, " ") != "year city" || got.Args[1] != "{city,year}" || q.String() != braced {
		t.Errorf("braced multiway parsed %+v, printed %q", got, q.String())
	}
	for _, bad := range []string{
		"R(W) := ⋈_AA {R(ABC)}",           // order names A twice
		"R(W) := ⋈_ABC {}",                // no operands
		"R(W) := ⋈_ABC R(ABC)",            // operands not braced
		"R(W) := ⋈_ABC {R(ABC), R(NOPE)}", // undefined operand
		"R(ABC) := ⋈_ABC {R(ABC)}",        // head is an input
	} {
		if _, err := Parse(bad, paperInputs, ""); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}
