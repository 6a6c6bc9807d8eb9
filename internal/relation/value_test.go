package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	v := Int(42)
	if v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) = kind %v value %d", v.Kind(), v.AsInt())
	}
	s := String("hi")
	if s.Kind() != KindString || s.AsString() != "hi" {
		t.Errorf("String(hi) = kind %v value %q", s.Kind(), s.AsString())
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Int(0), String(""), false},
		{Int(-1), Int(-1), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{
		Int(math.MinInt64), Int(-1), Int(0), Int(7), Int(math.MaxInt64),
		String(""), String("a"), String("ab"), String("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	if got := Int(-5).String(); got != "-5" {
		t.Errorf("Int(-5).String() = %q", got)
	}
	if got := String("x y").String(); got != "x y" {
		t.Errorf("String(x y).String() = %q", got)
	}
}

// TestValueKeyInjective checks the key encoding separates every pair of
// distinct values, via testing/quick.
func TestValueKeyInjective(t *testing.T) {
	intPair := func(a, b int64) bool {
		ka := string(Int(a).appendKey(nil))
		kb := string(Int(b).appendKey(nil))
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(intPair, nil); err != nil {
		t.Error(err)
	}
	strPair := func(a, b string) bool {
		ka := string(String(a).appendKey(nil))
		kb := string(String(b).appendKey(nil))
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(strPair, nil); err != nil {
		t.Error(err)
	}
	crossKind := func(a int64, b string) bool {
		return string(Int(a).appendKey(nil)) != string(String(b).appendKey(nil))
	}
	if err := quick.Check(crossKind, nil); err != nil {
		t.Error(err)
	}
}

// TestTupleKeyInjective checks that concatenated keys distinguish tuples
// even when value boundaries shift (length prefixes make the encoding
// self-delimiting).
func TestTupleKeyInjective(t *testing.T) {
	pairs := [][2]Tuple{
		{Tuple{String("ab"), String("c")}, Tuple{String("a"), String("bc")}},
		{Tuple{String(""), String("x")}, Tuple{String("x"), String("")}},
		{Ints(1, 2), Ints(12)},
		{Tuple{Int(1), String("2")}, Tuple{String("1"), Int(2)}},
	}
	for _, p := range pairs {
		if p[0].key() == p[1].key() {
			t.Errorf("tuples %v and %v encode to the same key", p[0], p[1])
		}
	}
	same := func(vs []int64) bool {
		return Ints(vs...).key() == Ints(vs...).key()
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCompare(t *testing.T) {
	if Ints(1, 2).Compare(Ints(1, 3)) != -1 {
		t.Error("(1,2) should sort before (1,3)")
	}
	if Ints(1, 2).Compare(Ints(1, 2)) != 0 {
		t.Error("(1,2) should equal (1,2)")
	}
	if Ints(1, 2, 3).Compare(Ints(1, 2)) != 1 {
		t.Error("longer tuple with equal prefix sorts after")
	}
}
