package relation

import (
	"slices"
	"testing"
)

func TestNewSchema(t *testing.T) {
	s, err := NewSchema("A", "B", "C")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if !slices.Equal(s.Attrs(), []string{"A", "B", "C"}) {
		t.Errorf("schema layout wrong: %v", s.Attrs())
	}
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	if _, err := NewSchema("A", "B", "A"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("A", ""); err == nil {
		t.Error("empty attribute accepted")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic on bad input")
		}
	}()
	MustSchema("A", "A")
}

func TestSchemaOfRunes(t *testing.T) {
	s := SchemaOfRunes("GHA")
	if !slices.Equal(s.Attrs(), []string{"G", "H", "A"}) {
		t.Errorf("SchemaOfRunes(GHA) = %v", s.Attrs())
	}
}

func TestSchemaPosition(t *testing.T) {
	s := MustSchema("X", "Y")
	if p, ok := s.Position("Y"); !ok || p != 1 {
		t.Errorf("Position(Y) = %d, %v", p, ok)
	}
	if _, ok := s.Position("Z"); ok {
		t.Error("Position(Z) should be missing")
	}
	if !s.Has("X") || s.Has("Z") {
		t.Error("Has wrong")
	}
}

func TestSchemaPositions(t *testing.T) {
	s := MustSchema("A", "B", "C")
	got, err := s.Positions([]string{"C", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 0 {
		t.Errorf("Positions = %v", got)
	}
	if _, err := s.Positions([]string{"Z"}); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestCommonPositions(t *testing.T) {
	l := MustSchema("A", "B", "C")
	r := SchemaOfRunes("GHA") // G, H, A
	inL, inR := CommonPositions(l, r)
	if len(inL) != 1 || inL[0] != 0 || inR[0] != 2 {
		t.Errorf("CommonPositions = %v %v", inL, inR)
	}
}

func TestSchemaString(t *testing.T) {
	if got := SchemaOfRunes("GHA").String(); got != "GHA" {
		t.Errorf("String = %q, want GHA (column order preserved)", got)
	}
	if got := MustSchema("city", "year").String(); got != "(city,year)" {
		t.Errorf("String = %q", got)
	}
}
