package program

import "testing"

// FuzzParseProgram drives the program parser with arbitrary input: it must
// never panic, and any accepted program must validate and round-trip.
func FuzzParseProgram(f *testing.F) {
	for _, seed := range []string{
		"R(V) := R(ABC) ⋉ R(CDE)\nR(V) := R(V) ⋈ R(EFG)",
		"R(F) := π_C R(ABC)",
		"R(F) := π_{C, E} R(ABC)",
		"X := ABC |><| EFG",
		"X := ABC <| CDE",
		"# comment\n\nR(V) := R(ABC) ⋈ R(CDE)",
		"R() := R(ABC) ⋈ R(CDE)",
		"R(V) = R(ABC) ⋈ R(CDE)",
		"",
		"π_ :=",
		"R(W) := ⋈_ACEGBDFH {R(ABC), R(CDE), R(EFG), R(GHA)}",
		"W := |><|_{C,A,B} {ABC, CDE}\nR(V) := R(W) ⋉ R(GHA)",
		"R(W) := ⋈_{} {R(ABC)}",
		"R(W) := ⋈_AA {R(ABC)}",
		"R(W) := ⋈_A R(ABC)",
	} {
		f.Add(seed)
	}
	inputs := []string{"ABC", "CDE", "EFG", "GHA"}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text, inputs, "")
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v\n%q", err, text)
		}
		again, err := Parse(p.String(), inputs, p.Output)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\n%s", err, p)
		}
		if again.String() != p.String() {
			t.Fatalf("round trip changed program:\n%s\nvs\n%s", again, p)
		}
	})
}
