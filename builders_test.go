package recycledb

import (
	"context"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// The public builder DSL must compose into executable plans covering every
// exported constructor.

func dslEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Mode: Off})
	tb := catalog.NewTable("orders", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "cust", Typ: vector.String},
		{Name: "amount", Typ: vector.Float64},
		{Name: "placed", Typ: vector.Date},
	})
	wtb := tb.BeginWrite()
	ap := wtb.Appender()
	base := vector.MustParseDate("1997-06-01")
	for i := 0; i < 300; i++ {
		ap.Int64(0, int64(i))
		ap.String(1, []string{"alice", "bob", "carol"}[i%3])
		ap.Float64(2, float64(i%50)*1.5)
		ap.Int64(3, base+int64(i))
		ap.FinishRow()
	}
	wtb.Commit()
	e.Catalog().AddTable(tb)
	cust := catalog.NewTable("customers", catalog.Schema{
		{Name: "name", Typ: vector.String},
		{Name: "tier", Typ: vector.Int64},
	})
	cust.AppendRows(
		[]vector.Datum{vector.NewStringDatum("alice"), vector.NewInt64Datum(1)},
		[]vector.Datum{vector.NewStringDatum("bob"), vector.NewInt64Datum(2)})
	e.Catalog().AddTable(cust)
	e.Catalog().AddFunc(&catalog.TableFunc{
		Name:   "range",
		Schema: catalog.Schema{{Name: "n", Typ: vector.Int64}},
		Invoke: func(c *catalog.Catalog, args []Datum) (*catalog.Result, error) {
			b := vector.NewBatch([]vector.Type{vector.Int64}, 8)
			for i := int64(0); i < args[0].I64; i++ {
				b.Vecs[0].AppendInt64(i)
			}
			return &catalog.Result{
				Schema:  catalog.Schema{{Name: "n", Typ: vector.Int64}},
				Batches: []*vector.Batch{b},
			}, nil
		},
	})
	return e
}

func mustRun(t *testing.T, e *Engine, q *Plan) *Result {
	t.Helper()
	r, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatalf("execute: %v\nplan:\n%s", err, q)
	}
	return r
}

func TestDSLFullSurface(t *testing.T) {
	e := dslEngine(t)

	// Comparison + logic + arithmetic + date functions in one predicate.
	pred := And(
		Or(Eq(Col("cust"), Str("alice")), Ne(Col("cust"), Str("bob"))),
		Ge(Col("amount"), Float(0)),
		Le(Col("amount"), Float(1000)),
		Not(Lt(Col("id"), Int(0))),
		Gt(Add(Col("amount"), Float(1)), SubE(Col("amount"), Float(1))),
		Eq(Year(Col("placed")), Int(1997)),
		Like(Col("cust"), "a%"),
		InStrings(Col("cust"), "alice", "bob", "carol"),
		Between(Col("amount"), Float(0), Float(999)),
	)
	q := Project(
		Select(Scan("orders", "id", "cust", "amount", "placed"), pred),
		As(Mul(Col("amount"), Float(2)), "dbl"),
		As(DivE(Col("amount"), Float(2)), "half"),
		As(Case(Gt(Col("amount"), Float(30)), Int(1), Int(0)), "big"),
		As(Col("cust"), "cust"),
	)
	r := mustRun(t, e, q)
	if r.Rows() == 0 {
		t.Fatal("no rows")
	}
	if r.Schema[0].Name != "dbl" || r.Schema[3].Name != "cust" {
		t.Fatalf("schema = %v", r.Schema)
	}

	// Aggregation with every aggregate kind + having-style select above.
	agg := Aggregate(Scan("orders", "cust", "amount"),
		GroupBy("cust"),
		Sum(Col("amount"), "total"),
		CountAll("n"),
		CountOf(Col("amount"), "vals"),
		Min(Col("amount"), "lo"),
		Max(Col("amount"), "hi"),
		Avg(Col("amount"), "mean"),
	)
	r = mustRun(t, e, agg)
	if r.Rows() != 3 {
		t.Fatalf("groups = %d", r.Rows())
	}

	// Joins of all four types plus Keys.
	inner := Join(Scan("orders", "id", "cust"), Scan("customers"),
		Keys("cust"), Keys("name"))
	if got := mustRun(t, e, inner).Rows(); got != 200 {
		t.Fatalf("inner rows = %d", got) // alice+bob rows only
	}
	semi := SemiJoin(Scan("orders", "id", "cust"), Scan("customers"),
		Keys("cust"), Keys("name"))
	if got := mustRun(t, e, semi).Rows(); got != 200 {
		t.Fatalf("semi rows = %d", got)
	}
	anti := AntiJoin(Scan("orders", "id", "cust"), Scan("customers"),
		Keys("cust"), Keys("name"))
	if got := mustRun(t, e, anti).Rows(); got != 100 {
		t.Fatalf("anti rows = %d", got)
	}
	outer := OuterJoin(Scan("orders", "id", "cust"), Scan("customers"),
		Keys("cust"), Keys("name"))
	if got := mustRun(t, e, outer).Rows(); got != 300 {
		t.Fatalf("outer rows = %d", got)
	}

	// Ordering: TopN, Sort, Limit, Union, NotLike, table functions.
	top := TopN(Scan("orders", "id", "amount"),
		OrderBy(Desc("amount"), Asc("id")), 7)
	if got := mustRun(t, e, top).Rows(); got != 7 {
		t.Fatalf("topn rows = %d", got)
	}
	sorted := Sort(Scan("orders", "id"), Asc("id"))
	if got := mustRun(t, e, sorted).Rows(); got != 300 {
		t.Fatalf("sort rows = %d", got)
	}
	lim := Limit(Scan("orders", "id"), 5)
	if got := mustRun(t, e, lim).Rows(); got != 5 {
		t.Fatalf("limit rows = %d", got)
	}
	un := Union(Scan("orders", "id"), Scan("orders", "id"))
	if got := mustRun(t, e, un).Rows(); got != 600 {
		t.Fatalf("union rows = %d", got)
	}
	nl := Select(Scan("orders", "cust"), NotLike(Col("cust"), "a%"))
	if got := mustRun(t, e, nl).Rows(); got != 200 {
		t.Fatalf("notlike rows = %d", got)
	}
	fn := Aggregate(TableFn("range", IntDatum(11)), nil, Sum(Col("n"), "s"))
	r = mustRun(t, e, fn)
	if r.Raw().Batches[0].Vecs[0].I64[0] != 55 {
		t.Fatal("table function sum wrong")
	}

	// Date helpers.
	dq := Select(Scan("orders", "placed"),
		Ge(Col("placed"), Date("1997-06-01")))
	if got := mustRun(t, e, dq).Rows(); got != 300 {
		t.Fatalf("date rows = %d", got)
	}
	_ = FloatDatum(1.5)
	_ = StrDatum("x")
	_ = DateDatum("1997-06-01")
}

func TestDSLErrorsSurface(t *testing.T) {
	e := dslEngine(t)
	if _, err := e.ExecuteContext(context.Background(), Scan("missing")); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := e.ExecuteContext(context.Background(), Select(Scan("orders"), Col("amount"))); err == nil {
		t.Fatal("non-boolean predicate must error")
	}
	if _, err := e.ExecuteContext(context.Background(), Join(Scan("orders"), Scan("orders"), nil, nil)); err == nil {
		t.Fatal("self cross join with duplicate columns must error")
	}
}
