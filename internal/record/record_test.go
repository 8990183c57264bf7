package record

import (
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{"id", KindInt64},
		Field{"price", KindFloat64},
		Field{"comment", KindString},
		Field{"shipdate", KindDate},
	)
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Field{"", KindInt64}); err == nil {
		t.Error("empty field name accepted")
	}
	if _, err := NewSchema(Field{"a", Kind(42)}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := NewSchema(Field{"a", KindInt64}, Field{"a", KindString}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.NumFields() != 4 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
	if s.Field(2).Name != "comment" {
		t.Errorf("Field(2) = %+v", s.Field(2))
	}
	i, err := s.Ordinal("shipdate")
	if err != nil || i != 3 {
		t.Errorf("Ordinal(shipdate) = %d, %v", i, err)
	}
	if _, err := s.Ordinal("nope"); err == nil {
		t.Error("Ordinal of missing field succeeded")
	}
	if s.MustOrdinal("price") != 1 {
		t.Error("MustOrdinal(price) != 1")
	}
	want := "(id bigint, price double, comment varchar, shipdate date)"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
}

func TestMustOrdinalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustOrdinal of missing field did not panic")
		}
	}()
	testSchema(t).MustOrdinal("ghost")
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int64(1), Int64(2), -1},
		{Int64(2), Int64(2), 0},
		{Int64(3), Int64(2), 1},
		{Date(10), Date(20), -1},
		{Float64(1.5), Float64(1.5), 0},
		{Float64(-1), Float64(1), -1},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{String("c"), String("b"), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cross-kind compare did not panic")
		}
	}()
	Compare(Int64(1), String("1"))
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindInt64: "bigint", KindFloat64: "double", KindString: "varchar", KindDate: "date", Kind(9): "Kind(9)",
	} {
		if k.String() != want {
			t.Errorf("Kind.String() = %q, want %q", k.String(), want)
		}
	}
}

func TestValueGoString(t *testing.T) {
	if got := Int64(5).GoString(); got != "5" {
		t.Errorf("Int64 GoString = %q", got)
	}
	if got := String("x").GoString(); got != `"x"` {
		t.Errorf("String GoString = %q", got)
	}
	if got := Date(12).GoString(); got != "date(12)" {
		t.Errorf("Date GoString = %q", got)
	}
	if !strings.Contains(Float64(1.5).GoString(), "1.5") {
		t.Errorf("Float64 GoString = %q", Float64(1.5).GoString())
	}
}

func TestCompareIsAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int64(a), Int64(b)) == -Compare(Int64(b), Int64(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Compare(String(a), String(b)) == -Compare(String(b), String(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}
