package vector

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Int64: "int64", Float64: "float64", String: "string",
		Date: "date", Bool: "bool", Unknown: "unknown",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

// TestDatumCanonTellsTypesApart pins the canonical spelling plan identity
// is rendered in: a literal's type reads off its text.
func TestDatumCanonTellsTypesApart(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{NewInt64Datum(2), "2"},
		{NewFloat64Datum(2), "2.0"},
		{NewFloat64Datum(-0.5), "-0.5"},
		{NewFloat64Datum(1e21), "1e+21"},
		{NewFloat64Datum(math.Inf(1)), "+Inf"},
		{NewDateDatum(2), "date(2)"},
		{NewStringDatum("2"), `"2"`},
		{NewBoolDatum(true), "true"},
	}
	// The prefix holds '.' and 'e': whether a float needs ".0" is read
	// off the appended bytes only.
	for _, c := range cases {
		if got := string(c.d.AppendCanon([]byte("e."))); got != "e."+c.want || c.d.String() != c.want {
			t.Errorf("%v datum spells %q, want %q", c.d.Typ, got, c.want)
		}
	}
}

func TestVectorAppendLen(t *testing.T) {
	v := New(Int64, 4)
	if v.Len() != 0 {
		t.Fatalf("new vector len = %d, want 0", v.Len())
	}
	v.AppendInt64(1)
	v.AppendInt64(2)
	if v.Len() != 2 {
		t.Fatalf("len = %d, want 2", v.Len())
	}
	v.Reset()
	if v.Len() != 0 {
		t.Fatalf("len after reset = %d, want 0", v.Len())
	}
}

func TestVectorLenAllTypes(t *testing.T) {
	for _, typ := range []Type{Int64, Float64, String, Date, Bool} {
		v := New(typ, 2)
		switch typ {
		case Int64, Date:
			v.AppendInt64(7)
		case Float64:
			v.AppendFloat64(7)
		case String:
			v.AppendString("seven")
		case Bool:
			v.AppendBool(true)
		}
		if v.Len() != 1 {
			t.Errorf("%v vector len = %d, want 1", typ, v.Len())
		}
	}
}

func TestVectorAppendFrom(t *testing.T) {
	src := New(String, 2)
	src.AppendString("a")
	src.AppendString("b")
	dst := New(String, 2)
	dst.AppendFrom(src, 1)
	if dst.Len() != 1 || dst.Str[0] != "b" {
		t.Fatalf("AppendFrom: got %v", dst.Str)
	}
}

func TestVectorDatumRoundTrip(t *testing.T) {
	v := New(Float64, 1)
	v.AppendFloat64(3.5)
	d := v.Datum(0)
	if d.Typ != Float64 || d.F64 != 3.5 {
		t.Fatalf("Datum = %+v", d)
	}
	v2 := New(Float64, 1)
	v2.AppendDatum(d)
	if v2.F64[0] != 3.5 {
		t.Fatalf("AppendDatum stored %v", v2.F64[0])
	}
}

func TestVectorBytes(t *testing.T) {
	v := New(Int64, 3)
	for i := 0; i < 3; i++ {
		v.AppendInt64(int64(i))
	}
	if got := v.Bytes(); got != 24 {
		t.Fatalf("int64 Bytes = %d, want 24", got)
	}
	s := New(String, 2)
	s.AppendString("ab")
	s.AppendString("cde")
	// 2 headers of 16 bytes + 5 payload bytes.
	if got := s.Bytes(); got != 2*16+5 {
		t.Fatalf("string Bytes = %d, want %d", got, 2*16+5)
	}
}

func TestVectorCloneIsDeep(t *testing.T) {
	v := New(Int64, 2)
	v.AppendInt64(1)
	c := v.Clone()
	v.I64[0] = 99
	if c.I64[0] != 1 {
		t.Fatalf("clone shares storage: %v", c.I64)
	}
}

func TestDatumEqualCompare(t *testing.T) {
	a := NewInt64Datum(1)
	b := NewInt64Datum(2)
	if a.Equal(b) || !a.Equal(NewInt64Datum(1)) {
		t.Fatal("Equal misbehaves on int64")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("Compare misbehaves on int64")
	}
	s1, s2 := NewStringDatum("a"), NewStringDatum("b")
	if s1.Compare(s2) != -1 || s2.Compare(s1) != 1 {
		t.Fatal("Compare misbehaves on string")
	}
	f1, f2 := NewFloat64Datum(1.5), NewFloat64Datum(2.5)
	if f1.Compare(f2) != -1 {
		t.Fatal("Compare misbehaves on float64")
	}
	bt, bf := NewBoolDatum(true), NewBoolDatum(false)
	if bf.Compare(bt) != -1 || bt.Compare(bf) != 1 {
		t.Fatal("Compare misbehaves on bool")
	}
	if NewInt64Datum(0).Equal(NewFloat64Datum(0)) {
		t.Fatal("datums of different types must not be equal")
	}
}

func TestDatumCompareMismatchedTypesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched Compare")
		}
	}()
	NewInt64Datum(1).Compare(NewStringDatum("x"))
}

func TestBatchCloneTypesBytes(t *testing.T) {
	b := NewBatch([]Type{Int64, Float64}, 1)
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendFloat64(2)
	c := b.Clone()
	b.Vecs[0].I64[0] = 42
	if c.Vecs[0].I64[0] != 1 {
		t.Fatal("batch clone shares storage")
	}
	ts := b.Types()
	if len(ts) != 2 || ts[0] != Int64 || ts[1] != Float64 {
		t.Fatalf("Types = %v", ts)
	}
	if b.Bytes() != 16 {
		t.Fatalf("Bytes = %d, want 16", b.Bytes())
	}
	if b.Width() != 2 {
		t.Fatalf("Width = %d, want 2", b.Width())
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch([]Type{Int64}, 1)
	b.Vecs[0].AppendInt64(5)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("len after reset = %d", b.Len())
	}
}

// TestAppendDateMatchesTime compares AppendDate with time.Format over
// years ≈ -220 to 10183: both sides of the integer kernel's 0000-9999 range
// (where it falls back to time) and every day inside it.
func TestAppendDateMatchesTime(t *testing.T) {
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	var buf [16]byte
	for d := int64(-800_000); d <= 3_000_000; d += step {
		got := AppendDate(buf[:0], d)
		if want := time.Unix(d*86400, 0).UTC().Format("2006-01-02"); string(got) != want {
			t.Fatalf("day %d: got %q, want %q", d, got, want)
		}
	}
	if got := DateString(MustParseDate("0000-03-01")); got != "0000-03-01" {
		t.Fatalf("DateString: %q", got)
	}
}

func TestDateRoundTrip(t *testing.T) {
	d := MustParseDate("1998-03-01")
	if DateString(d) != "1998-03-01" {
		t.Fatalf("round trip gave %s", DateString(d))
	}
	if YearOf(d) != 1998 || MonthOf(d) != 3 {
		t.Fatalf("YearOf=%d MonthOf=%d", YearOf(d), MonthOf(d))
	}
	if DaysFromDate(1970, 1, 1) != 0 {
		t.Fatalf("epoch is not day 0")
	}
	if DaysFromDate(1970, 1, 2) != 1 {
		t.Fatalf("day after epoch is not day 1")
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad date")
		}
	}()
	MustParseDate("not-a-date")
}

// Property: Datum round trip through a vector preserves equality.
func TestDatumVectorRoundTripProperty(t *testing.T) {
	f := func(x int64) bool {
		v := New(Int64, 1)
		v.AppendInt64(x)
		return v.Datum(0).Equal(NewInt64Datum(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(s string) bool {
		v := New(String, 1)
		v.AppendString(s)
		return v.Datum(0).Equal(NewStringDatum(s))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric and Equal iff Compare==0.
func TestDatumCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		da, db := NewInt64Datum(a), NewInt64Datum(b)
		if da.Compare(db) != -db.Compare(da) {
			return false
		}
		return (da.Compare(db) == 0) == da.Equal(db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: date string rendering of consecutive days is strictly increasing.
func TestDateOrderingProperty(t *testing.T) {
	f := func(d uint16) bool {
		day := int64(d)
		return DateString(day) < DateString(day+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
