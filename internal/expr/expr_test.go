package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// testBatch builds a 4-row batch with schema (a int64, b float64, s string,
// d date).
func testBatch() (catalog.Schema, *vector.Batch) {
	sch := catalog.Schema{
		{Name: "a", Typ: vector.Int64},
		{Name: "b", Typ: vector.Float64},
		{Name: "s", Typ: vector.String},
		{Name: "d", Typ: vector.Date},
	}
	b := vector.NewBatch(sch.Types(), 4)
	for i := 0; i < 4; i++ {
		b.Vecs[0].AppendInt64(int64(i))
		b.Vecs[1].AppendFloat64(float64(i) + 0.5)
		b.Vecs[2].AppendString([]string{"apple", "banana", "cherry", "date"}[i])
		b.Vecs[3].AppendInt64(vector.MustParseDate("1998-01-01") + int64(i)*40)
	}
	return sch, b
}

// evalBools binds e against the test schema and returns its boolean results.
func evalBools(t *testing.T, e Expr) []bool {
	t.Helper()
	sch, b := testBatch()
	typ, err := e.Bind(sch)
	if err != nil {
		t.Fatal(err)
	}
	if typ != vector.Bool {
		t.Fatalf("expr type = %v, want bool", typ)
	}
	out := vector.New(vector.Bool, b.Len())
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	return out.B
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestColEval(t *testing.T) {
	sch, b := testBatch()
	c := C("a")
	if _, err := c.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.Int64, 4)
	if err := c.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 || out.I64[3] != 3 {
		t.Fatalf("col eval = %v", out.I64)
	}
}

func TestColBindUnknown(t *testing.T) {
	sch, _ := testBatch()
	if _, err := C("zzz").Bind(sch); err == nil {
		t.Fatal("expected bind error for unknown column")
	}
}

func TestLitEval(t *testing.T) {
	sch, b := testBatch()
	l := Flt(2.5)
	if _, err := l.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.Float64, 4)
	if err := l.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 || out.F64[0] != 2.5 {
		t.Fatalf("lit eval = %v", out.F64)
	}
}

func TestCmpInt(t *testing.T) {
	got := evalBools(t, Lt(C("a"), Int(2)))
	if !boolsEqual(got, []bool{true, true, false, false}) {
		t.Fatalf("a<2 = %v", got)
	}
	got = evalBools(t, Ge(C("a"), Int(2)))
	if !boolsEqual(got, []bool{false, false, true, true}) {
		t.Fatalf("a>=2 = %v", got)
	}
	got = evalBools(t, Eq(C("a"), Int(1)))
	if !boolsEqual(got, []bool{false, true, false, false}) {
		t.Fatalf("a=1 = %v", got)
	}
	got = evalBools(t, Ne(C("a"), Int(1)))
	if !boolsEqual(got, []bool{true, false, true, true}) {
		t.Fatalf("a<>1 = %v", got)
	}
}

func TestCmpMixedIntFloat(t *testing.T) {
	// a (int) compared against b (float): promotes to float.
	got := evalBools(t, Gt(C("b"), C("a")))
	if !boolsEqual(got, []bool{true, true, true, true}) {
		t.Fatalf("b>a = %v", got)
	}
	got = evalBools(t, Le(C("b"), Flt(1.5)))
	if !boolsEqual(got, []bool{true, true, false, false}) {
		t.Fatalf("b<=1.5 = %v", got)
	}
}

func TestCmpString(t *testing.T) {
	got := evalBools(t, Gt(C("s"), Str("banana")))
	if !boolsEqual(got, []bool{false, false, true, true}) {
		t.Fatalf("s>banana = %v", got)
	}
}

func TestCmpDate(t *testing.T) {
	got := evalBools(t, Le(C("d"), DateLit("1998-02-11")))
	if !boolsEqual(got, []bool{true, true, false, false}) {
		t.Fatalf("d<=1998-02-11 = %v", got)
	}
}

func TestCmpTypeError(t *testing.T) {
	sch, _ := testBatch()
	if _, err := Eq(C("a"), Str("x")).Bind(sch); err == nil {
		t.Fatal("expected int vs string comparison error")
	}
}

func TestAndOrNot(t *testing.T) {
	got := evalBools(t, AndOf(Ge(C("a"), Int(1)), Le(C("a"), Int(2))))
	if !boolsEqual(got, []bool{false, true, true, false}) {
		t.Fatalf("1<=a<=2 = %v", got)
	}
	got = evalBools(t, OrOf(Eq(C("a"), Int(0)), Eq(C("a"), Int(3))))
	if !boolsEqual(got, []bool{true, false, false, true}) {
		t.Fatalf("a=0 or a=3 = %v", got)
	}
	got = evalBools(t, NotOf(Eq(C("a"), Int(0))))
	if !boolsEqual(got, []bool{false, true, true, true}) {
		t.Fatalf("not a=0 = %v", got)
	}
}

func TestAndOfSingleCollapses(t *testing.T) {
	e := AndOf(Eq(C("a"), Int(0)))
	if _, ok := e.(*Cmp); !ok {
		t.Fatalf("AndOf(1 element) = %T, want *Cmp", e)
	}
	e = OrOf(Eq(C("a"), Int(0)))
	if _, ok := e.(*Cmp); !ok {
		t.Fatalf("OrOf(1 element) = %T, want *Cmp", e)
	}
}

func TestBindErrorsPropagate(t *testing.T) {
	sch, _ := testBatch()
	bad := C("zzz")
	for _, e := range []Expr{
		AndOf(Eq(bad.Clone(), Int(1)), BoolLit(true)),
		OrOf(Eq(bad.Clone(), Int(1)), BoolLit(true)),
		NotOf(Eq(bad.Clone(), Int(1))),
		Add(bad.Clone(), Int(1)),
		LikeOf(bad.Clone(), "%x%"),
		In(bad.Clone(), vector.NewInt64Datum(1)),
		YearOf(bad.Clone()),
	} {
		if _, err := e.Bind(sch); err == nil {
			t.Fatalf("%T: expected bind error", e)
		}
	}
}

func TestNonBoolOperandsRejected(t *testing.T) {
	sch, _ := testBatch()
	if _, err := AndOf(C("a"), BoolLit(true)).Bind(sch); err == nil {
		t.Fatal("AND over int should fail")
	}
	if _, err := NotOf(C("a")).Bind(sch); err == nil {
		t.Fatal("NOT over int should fail")
	}
	if _, err := LikeOf(C("a"), "%").Bind(sch); err == nil {
		t.Fatal("LIKE over int should fail")
	}
	if _, err := YearOf(C("a")).Bind(sch); err == nil {
		t.Fatal("year() over int should fail")
	}
}

func TestLike(t *testing.T) {
	got := evalBools(t, LikeOf(C("s"), "%an%"))
	if !boolsEqual(got, []bool{false, true, false, false}) {
		t.Fatalf("s like %%an%% = %v", got)
	}
	got = evalBools(t, LikeOf(C("s"), "d_te"))
	if !boolsEqual(got, []bool{false, false, false, true}) {
		t.Fatalf("s like d_te = %v", got)
	}
	got = evalBools(t, NotLikeOf(C("s"), "%e%"))
	// apple, cherry, date contain e; banana does not.
	if !boolsEqual(got, []bool{false, true, false, false}) {
		t.Fatalf("s not like %%e%% = %v", got)
	}
}

func TestLikeMatchCases(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"PROMO BRUSHED", "PROMO%", true},
		{"MEDIUM POLISHED", "PROMO%", false},
		{"aXbXc", "a%b%c", true},
		{"special requests", "%special%requests%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestInList(t *testing.T) {
	got := evalBools(t, In(C("a"), vector.NewInt64Datum(0), vector.NewInt64Datum(2)))
	if !boolsEqual(got, []bool{true, false, true, false}) {
		t.Fatalf("a in (0,2) = %v", got)
	}
	got = evalBools(t, NotIn(C("s"), vector.NewStringDatum("apple")))
	if !boolsEqual(got, []bool{false, true, true, true}) {
		t.Fatalf("s not in (apple) = %v", got)
	}
	got = evalBools(t, InStrings(C("s"), "date", "cherry"))
	if !boolsEqual(got, []bool{false, false, true, true}) {
		t.Fatalf("s in (date,cherry) = %v", got)
	}
}

func TestBetween(t *testing.T) {
	got := evalBools(t, Between(C("a"), Int(1), Int(2)))
	if !boolsEqual(got, []bool{false, true, true, false}) {
		t.Fatalf("a between 1 and 2 = %v", got)
	}
}

func TestArith(t *testing.T) {
	sch, b := testBatch()
	e := Add(Mul(C("a"), Int(10)), Int(1))
	typ, err := e.Bind(sch)
	if err != nil {
		t.Fatal(err)
	}
	if typ != vector.Int64 {
		t.Fatalf("type = %v", typ)
	}
	out := vector.New(vector.Int64, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	if out.I64[3] != 31 {
		t.Fatalf("a*10+1 = %v", out.I64)
	}
}

func TestArithFloatPromotion(t *testing.T) {
	sch, b := testBatch()
	e := Mul(C("b"), Sub(Int(1), C("a"))) // float * int -> float
	typ, err := e.Bind(sch)
	if err != nil {
		t.Fatal(err)
	}
	if typ != vector.Float64 {
		t.Fatalf("type = %v", typ)
	}
	out := vector.New(vector.Float64, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	// row 2: b=2.5, 1-a=-1 => -2.5
	if out.F64[2] != -2.5 {
		t.Fatalf("eval = %v", out.F64)
	}
}

func TestDivIsFloatAndGuarded(t *testing.T) {
	sch, b := testBatch()
	e := Div(Int(10), C("a")) // a contains 0 in row 0
	typ, err := e.Bind(sch)
	if err != nil {
		t.Fatal(err)
	}
	if typ != vector.Float64 {
		t.Fatalf("type = %v", typ)
	}
	out := vector.New(vector.Float64, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	if out.F64[0] != 0 || out.F64[2] != 5 {
		t.Fatalf("10/a = %v", out.F64)
	}
}

func TestArithTypeError(t *testing.T) {
	sch, _ := testBatch()
	if _, err := Add(C("s"), Int(1)).Bind(sch); err == nil {
		t.Fatal("expected arithmetic type error")
	}
}

func TestCase(t *testing.T) {
	sch, b := testBatch()
	e := CaseWhen(Lt(C("a"), Int(2)), C("b"), Flt(0))
	typ, err := e.Bind(sch)
	if err != nil {
		t.Fatal(err)
	}
	if typ != vector.Float64 {
		t.Fatalf("type = %v", typ)
	}
	out := vector.New(vector.Float64, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.5, 0, 0}
	for i := range want {
		if out.F64[i] != want[i] {
			t.Fatalf("case = %v, want %v", out.F64, want)
		}
	}
}

func TestCaseMultiArm(t *testing.T) {
	sch, b := testBatch()
	e := &Case{
		Whens: []WhenClause{
			{Cond: Eq(C("a"), Int(0)), Then: Int(100)},
			{Cond: Eq(C("a"), Int(1)), Then: Int(200)},
		},
		Else: Int(0),
	}
	if _, err := e.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.Int64, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 200, 0, 0}
	for i := range want {
		if out.I64[i] != want[i] {
			t.Fatalf("case = %v, want %v", out.I64, want)
		}
	}
}

func TestYearMonth(t *testing.T) {
	sch, b := testBatch()
	y := YearOf(C("d"))
	if _, err := y.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.Int64, 4)
	if err := y.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	if out.I64[0] != 1998 || out.I64[3] != 1998 {
		t.Fatalf("year = %v", out.I64)
	}
	m := MonthOf(C("d"))
	if _, err := m.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out2 := vector.New(vector.Int64, 4)
	if err := m.Eval(b, out2); err != nil {
		t.Fatal(err)
	}
	if out2.I64[0] != 1 || out2.I64[3] != 5 {
		t.Fatalf("month = %v", out2.I64)
	}
}

func TestSubstr(t *testing.T) {
	sch, b := testBatch()
	e := SubstrOf(C("s"), 1, 2)
	if _, err := e.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.String, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	if out.Str[0] != "ap" || out.Str[3] != "da" {
		t.Fatalf("substr = %v", out.Str)
	}
}

func TestSubstrOutOfRange(t *testing.T) {
	sch, b := testBatch()
	e := SubstrOf(C("s"), 4, 100)
	if _, err := e.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.String, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	if out.Str[3] != "e" { // "date"[3:]
		t.Fatalf("substr = %v", out.Str)
	}
}

func TestBinBy(t *testing.T) {
	sch, b := testBatch()
	e := BinBy(C("d"), 365)
	if _, err := e.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.Int64, 4)
	if err := e.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	// All dates are in 1998; same bin.
	if out.I64[0] != out.I64[1] {
		t.Fatalf("bin = %v", out.I64)
	}
	if _, err := BinBy(C("a"), 0).Bind(sch); err == nil {
		t.Fatal("bin width 0 should fail")
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// canon returns e's canonical text under rename.
func canon(e Expr, rename func(string) string) string { return string(e.AppendCanon(nil, rename)) }

func TestCanonRename(t *testing.T) {
	e := AndOf(Le(C("x"), Int(5)), LikeOf(C("y"), "%z%"))
	rename := func(s string) string { return "t." + s }
	got := canon(e, rename)
	if !strings.Contains(got, "t.x") || !strings.Contains(got, "t.y") {
		t.Fatalf("canon = %q", got)
	}
	// Identity rename differs from prefixed rename.
	if got == canon(e, Ident) {
		t.Fatal("rename had no effect")
	}
}

func TestCanonDeterministic(t *testing.T) {
	build := func() Expr {
		return OrOf(
			AndOf(Eq(C("a"), Int(1)), Between(C("d"), DateLit("1995-01-01"), DateLit("1996-12-31"))),
			CaseWhen(Lt(C("b"), Flt(1)), Int(1), Int(0)),
		)
	}
	if canon(build(), Ident) != canon(build(), Ident) {
		t.Fatal("canonical form is not deterministic")
	}
}

func TestColsCollection(t *testing.T) {
	e := AndOf(Eq(C("a"), Int(1)), OrOf(Gt(C("b"), Flt(0)), LikeOf(C("s"), "%")))
	got := Cols(e)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "s" {
		t.Fatalf("Cols = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	sch, b := testBatch()
	orig := Lt(C("a"), Int(2))
	cl := orig.Clone().(*Cmp)
	if _, err := cl.Bind(sch); err != nil {
		t.Fatal(err)
	}
	out := vector.New(vector.Bool, 4)
	if err := cl.Eval(b, out); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone's literal must not affect the original canon.
	cl.R.(*Lit).D = vector.NewInt64Datum(99)
	if canon(orig, Ident) == canon(cl, Ident) {
		t.Fatal("clone shares literal storage")
	}
}

// Property: likeMatch("%"+s+"%") always matches any superstring of s.
func TestLikeContainsProperty(t *testing.T) {
	f := func(pre, mid, suf string) bool {
		if strings.ContainsAny(mid, "%_") {
			return true // skip wildcard metacharacters in the needle
		}
		return likeMatch(pre+mid+suf, "%"+mid+"%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison results are consistent with Go's native comparison.
func TestCmpProperty(t *testing.T) {
	f := func(x, y int64) bool {
		sch := catalog.Schema{{Name: "v", Typ: vector.Int64}}
		b := vector.NewBatch(sch.Types(), 1)
		b.Vecs[0].AppendInt64(x)
		e := Lt(C("v"), Int(y))
		if _, err := e.Bind(sch); err != nil {
			return false
		}
		out := vector.New(vector.Bool, 1)
		if err := e.Eval(b, out); err != nil {
			return false
		}
		return out.B[0] == (x < y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
