package exec

import (
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// testCatalog returns a catalog with:
//
//	emp(id int, dept string, salary float, hired date) - 1000 rows
//	dept(name string, region string)                   - 4 rows
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	emp := catalog.NewTable("emp", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "dept", Typ: vector.String},
		{Name: "salary", Typ: vector.Float64},
		{Name: "hired", Typ: vector.Date},
	})
	depts := []string{"eng", "sales", "hr", "ops"}
	w := emp.BeginWrite()
	ap := w.Appender()
	base := vector.MustParseDate("2000-01-01")
	for i := 0; i < 1000; i++ {
		ap.Int64(0, int64(i))
		ap.String(1, depts[i%4])
		ap.Float64(2, float64(1000+i%500))
		ap.Int64(3, base+int64(i))
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(emp)

	dept := catalog.NewTable("dept", catalog.Schema{
		{Name: "name", Typ: vector.String},
		{Name: "region", Typ: vector.String},
	})
	for i, d := range depts {
		region := "emea"
		if i%2 == 0 {
			region = "amer"
		}
		dept.AppendRows([]vector.Datum{vector.NewStringDatum(d), vector.NewStringDatum(region)})
	}
	cat.AddTable(dept)
	return cat
}

// runPlan resolves and executes a plan, returning the result.
func runPlan(t *testing.T, cat *catalog.Catalog, n *plan.Node) *catalog.Result {
	t.Helper()
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	op, err := Build(ctx, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTableScan(t *testing.T) {
	cat := testCatalog()
	res := runPlan(t, cat, plan.NewScan("emp", "id", "salary"))
	if res.Rows() != 1000 {
		t.Fatalf("rows = %d", res.Rows())
	}
	if len(res.Schema) != 2 {
		t.Fatalf("schema = %v", res.Schema)
	}
}

func TestScanUsesVectorSize(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("emp", "id")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Cat: cat, VectorSize: 128}
	op, err := Build(ctx, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b, err := op.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 128 {
		t.Fatalf("batch len = %d, want 128", b.Len())
	}
	op.Close(ctx)
}

func TestFilter(t *testing.T) {
	cat := testCatalog()
	n := plan.NewSelect(plan.NewScan("emp", "id", "dept"),
		expr.Eq(expr.C("dept"), expr.Str("eng")))
	res := runPlan(t, cat, n)
	if res.Rows() != 250 {
		t.Fatalf("rows = %d, want 250", res.Rows())
	}
}

func TestFilterAllOut(t *testing.T) {
	cat := testCatalog()
	n := plan.NewSelect(plan.NewScan("emp", "id"),
		expr.Lt(expr.C("id"), expr.Int(0)))
	res := runPlan(t, cat, n)
	if res.Rows() != 0 {
		t.Fatalf("rows = %d, want 0", res.Rows())
	}
}

func TestProject(t *testing.T) {
	cat := testCatalog()
	n := plan.NewProject(plan.NewScan("emp", "id", "salary"),
		plan.P(expr.Mul(expr.C("salary"), expr.Flt(2)), "dbl"),
		plan.P(expr.C("id"), "id"),
	)
	res := runPlan(t, cat, n)
	if res.Rows() != 1000 {
		t.Fatalf("rows = %d", res.Rows())
	}
	if res.Schema[0].Name != "dbl" {
		t.Fatalf("schema = %v", res.Schema)
	}
	if res.Batches[0].Vecs[0].F64[0] != 2000 {
		t.Fatalf("dbl[0] = %v", res.Batches[0].Vecs[0].F64[0])
	}
}

func TestHashAggGrouped(t *testing.T) {
	cat := testCatalog()
	n := plan.NewAggregate(plan.NewScan("emp", "dept", "salary"),
		[]string{"dept"},
		plan.A(plan.Count, nil, "cnt"),
		plan.A(plan.Sum, expr.C("salary"), "total"),
		plan.A(plan.Avg, expr.C("salary"), "mean"),
		plan.A(plan.Min, expr.C("salary"), "lo"),
		plan.A(plan.Max, expr.C("salary"), "hi"),
	)
	res := runPlan(t, cat, n)
	if res.Rows() != 4 {
		t.Fatalf("groups = %d, want 4", res.Rows())
	}
	b := res.Batches[0]
	for i := 0; i < b.Len(); i++ {
		cnt := b.Vecs[1].I64[i]
		total := b.Vecs[2].F64[i]
		mean := b.Vecs[3].F64[i]
		lo := b.Vecs[4].F64[i]
		hi := b.Vecs[5].F64[i]
		if cnt != 250 {
			t.Fatalf("group %d count = %d", i, cnt)
		}
		if mean < lo || mean > hi {
			t.Fatalf("mean %v outside [%v,%v]", mean, lo, hi)
		}
		if total <= 0 {
			t.Fatalf("total = %v", total)
		}
	}
}

// Min and max order bools false < true, serially and through the parallel
// merge, and emit one value per group.
func TestHashAggBoolMinMax(t *testing.T) {
	tb := catalog.NewTable("flags", catalog.Schema{
		{Name: "k", Typ: vector.Int64},
		{Name: "b", Typ: vector.Bool},
	})
	w := tb.BeginWrite()
	app := w.Appender()
	for i := 0; i < 64; i++ {
		app.Int64(0, int64(i%3))
		app.Bool(1, i%3 == 0 || (i%3 == 1 && i > 40)) // k=0 all true, k=1 mixed, k=2 all false
		app.FinishRow()
	}
	w.Commit()
	cat := catalog.New()
	cat.AddTable(tb)
	q := plan.NewAggregate(plan.NewScan("flags", "k", "b"), []string{"k"},
		plan.A(plan.Min, expr.C("b"), "lo"),
		plan.A(plan.Max, expr.C("b"), "hi"))
	want := []string{"0|true|true|", "1|false|true|", "2|false|false|"}
	for _, par := range []int{1, 4} {
		got := aggResultRows(runPlanPar(t, cat, q, par, 8))
		if len(got) != len(want) {
			t.Fatalf("par %d: rows %q, want %q", par, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par %d: rows %q, want %q", par, got, want)
			}
		}
	}
}

func TestHashAggScalarOverEmptyInput(t *testing.T) {
	cat := testCatalog()
	n := plan.NewAggregate(
		plan.NewSelect(plan.NewScan("emp", "id", "salary"),
			expr.Lt(expr.C("id"), expr.Int(0))),
		nil,
		plan.A(plan.Count, nil, "cnt"),
		plan.A(plan.Sum, expr.C("salary"), "total"),
	)
	res := runPlan(t, cat, n)
	if res.Rows() != 1 {
		t.Fatalf("scalar agg rows = %d, want 1", res.Rows())
	}
	if res.Batches[0].Vecs[0].I64[0] != 0 {
		t.Fatalf("count = %d, want 0", res.Batches[0].Vecs[0].I64[0])
	}
}

func TestHashAggCountStar(t *testing.T) {
	cat := testCatalog()
	n := plan.NewAggregate(plan.NewScan("emp", "id"), nil, plan.A(plan.Count, nil, "c"))
	res := runPlan(t, cat, n)
	if res.Batches[0].Vecs[0].I64[0] != 1000 {
		t.Fatalf("count(*) = %d", res.Batches[0].Vecs[0].I64[0])
	}
}

func TestHashAggIntSum(t *testing.T) {
	cat := testCatalog()
	n := plan.NewAggregate(plan.NewScan("emp", "id"), nil,
		plan.A(plan.Sum, expr.C("id"), "s"))
	res := runPlan(t, cat, n)
	if got := res.Batches[0].Vecs[0].I64[0]; got != 999*1000/2 {
		t.Fatalf("sum(id) = %d", got)
	}
}

func TestHashJoinInner(t *testing.T) {
	cat := testCatalog()
	n := plan.NewJoin(plan.Inner,
		plan.NewScan("emp", "id", "dept"),
		plan.NewScan("dept", "name", "region"),
		[]string{"dept"}, []string{"name"})
	res := runPlan(t, cat, n)
	if res.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", res.Rows())
	}
	if len(res.Schema) != 4 {
		t.Fatalf("schema = %v", res.Schema)
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	cat := testCatalog()
	semi := plan.NewJoin(plan.LeftSemi,
		plan.NewScan("emp", "id", "dept"),
		plan.NewSelect(plan.NewScan("dept", "name", "region"),
			expr.Eq(expr.C("region"), expr.Str("amer"))),
		[]string{"dept"}, []string{"name"})
	res := runPlan(t, cat, semi)
	if res.Rows() != 500 { // eng + hr
		t.Fatalf("semi rows = %d, want 500", res.Rows())
	}
	anti := plan.NewJoin(plan.LeftAnti,
		plan.NewScan("emp", "id", "dept"),
		plan.NewSelect(plan.NewScan("dept", "name", "region"),
			expr.Eq(expr.C("region"), expr.Str("amer"))),
		[]string{"dept"}, []string{"name"})
	res = runPlan(t, cat, anti)
	if res.Rows() != 500 {
		t.Fatalf("anti rows = %d, want 500", res.Rows())
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	cat := testCatalog()
	// Join emp against only the "eng" dept: 250 matched, 750 unmatched.
	n := plan.NewJoin(plan.LeftOuter,
		plan.NewScan("emp", "id", "dept"),
		plan.NewSelect(plan.NewScan("dept", "name"),
			expr.Eq(expr.C("name"), expr.Str("eng"))),
		[]string{"dept"}, []string{"name"})
	res := runPlan(t, cat, n)
	if res.Rows() != 1000 {
		t.Fatalf("louter rows = %d, want 1000", res.Rows())
	}
	matched := int64(0)
	mcol := len(res.Schema) - 1
	for _, b := range res.Batches {
		for _, m := range b.Vecs[mcol].I64 {
			matched += m
		}
	}
	if matched != 250 {
		t.Fatalf("matched = %d, want 250", matched)
	}
}

func TestHashJoinDuplicateMatches(t *testing.T) {
	cat := catalog.New()
	l := catalog.NewTable("l", catalog.Schema{{Name: "k", Typ: vector.Int64}})
	r := catalog.NewTable("r", catalog.Schema{{Name: "rk", Typ: vector.Int64}, {Name: "v", Typ: vector.Int64}})
	for i := 0; i < 10; i++ {
		l.AppendRows([]vector.Datum{vector.NewInt64Datum(int64(i % 2))})
	}
	for i := 0; i < 6; i++ {
		r.AppendRows([]vector.Datum{vector.NewInt64Datum(int64(i % 2)), vector.NewInt64Datum(int64(i))})
	}
	cat.AddTable(l)
	cat.AddTable(r)
	n := plan.NewJoin(plan.Inner, plan.NewScan("l"), plan.NewScan("r"),
		[]string{"k"}, []string{"rk"})
	res := runPlan(t, cat, n)
	// Each of 10 left rows matches 3 right rows.
	if res.Rows() != 30 {
		t.Fatalf("rows = %d, want 30", res.Rows())
	}
}

func TestHashJoinManyMatchesSpanBatches(t *testing.T) {
	cat := catalog.New()
	l := catalog.NewTable("l", catalog.Schema{{Name: "k", Typ: vector.Int64}})
	r := catalog.NewTable("r", catalog.Schema{{Name: "rk", Typ: vector.Int64}})
	l.AppendRows([]vector.Datum{vector.NewInt64Datum(7)})
	for i := 0; i < 5000; i++ {
		r.AppendRows([]vector.Datum{vector.NewInt64Datum(7)})
	}
	cat.AddTable(l)
	cat.AddTable(r)
	n := plan.NewJoin(plan.Inner, plan.NewScan("l"), plan.NewScan("r"),
		[]string{"k"}, []string{"rk"})
	res := runPlan(t, cat, n)
	if res.Rows() != 5000 {
		t.Fatalf("rows = %d, want 5000", res.Rows())
	}
}

func TestSortAscDesc(t *testing.T) {
	cat := testCatalog()
	n := plan.NewSort(plan.NewScan("emp", "id", "salary"),
		plan.SortKey{Col: "salary", Desc: true}, plan.SortKey{Col: "id"})
	res := runPlan(t, cat, n)
	if res.Rows() != 1000 {
		t.Fatalf("rows = %d", res.Rows())
	}
	var prev float64 = 1e18
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			s := b.Vecs[1].F64[i]
			if s > prev {
				t.Fatalf("not sorted desc: %v after %v", s, prev)
			}
			prev = s
		}
	}
}

func TestTopN(t *testing.T) {
	cat := testCatalog()
	n := plan.NewTopN(plan.NewScan("emp", "id"),
		[]plan.SortKey{{Col: "id", Desc: true}}, 7)
	res := runPlan(t, cat, n)
	if res.Rows() != 7 {
		t.Fatalf("rows = %d, want 7", res.Rows())
	}
	want := int64(999)
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			if b.Vecs[0].I64[i] != want {
				t.Fatalf("top id = %d, want %d", b.Vecs[0].I64[i], want)
			}
			want--
		}
	}
}

func TestTopNEqualsSortLimit(t *testing.T) {
	cat := testCatalog()
	top := plan.NewTopN(plan.NewScan("emp", "id", "salary"),
		[]plan.SortKey{{Col: "salary"}, {Col: "id"}}, 25)
	sl := plan.NewLimit(plan.NewSort(plan.NewScan("emp", "id", "salary"),
		plan.SortKey{Col: "salary"}, plan.SortKey{Col: "id"}), 25)
	r1 := runPlan(t, cat, top)
	r2 := runPlan(t, cat, sl)
	ids1 := collectI64(r1, 0)
	ids2 := collectI64(r2, 0)
	if len(ids1) != 25 || len(ids2) != 25 {
		t.Fatalf("lens %d %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("row %d: topn %d vs sort+limit %d", i, ids1[i], ids2[i])
		}
	}
}

func collectI64(r *catalog.Result, col int) []int64 {
	var out []int64
	for _, b := range r.Batches {
		out = append(out, b.Vecs[col].I64...)
	}
	return out
}

func TestTopNLargerThanInput(t *testing.T) {
	cat := testCatalog()
	n := plan.NewTopN(plan.NewScan("dept", "name"),
		[]plan.SortKey{{Col: "name"}}, 100)
	res := runPlan(t, cat, n)
	if res.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", res.Rows())
	}
}

func TestLimit(t *testing.T) {
	cat := testCatalog()
	res := runPlan(t, cat, plan.NewLimit(plan.NewScan("emp", "id"), 10))
	if res.Rows() != 10 {
		t.Fatalf("rows = %d, want 10", res.Rows())
	}
	res = runPlan(t, cat, plan.NewLimit(plan.NewScan("dept", "name"), 100))
	if res.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", res.Rows())
	}
	res = runPlan(t, cat, plan.NewLimit(plan.NewScan("emp", "id"), 0))
	if res.Rows() != 0 {
		t.Fatalf("rows = %d, want 0", res.Rows())
	}
}

func TestUnion(t *testing.T) {
	cat := testCatalog()
	n := plan.NewUnion(
		plan.NewSelect(plan.NewScan("emp", "id"), expr.Lt(expr.C("id"), expr.Int(10))),
		plan.NewSelect(plan.NewScan("emp", "id"), expr.Ge(expr.C("id"), expr.Int(990))),
	)
	res := runPlan(t, cat, n)
	if res.Rows() != 20 {
		t.Fatalf("rows = %d, want 20", res.Rows())
	}
}

func TestTableFnScan(t *testing.T) {
	cat := testCatalog()
	cat.AddFunc(&catalog.TableFunc{
		Name:   "seq",
		Schema: catalog.Schema{{Name: "n", Typ: vector.Int64}},
		Invoke: func(c *catalog.Catalog, args []vector.Datum) (*catalog.Result, error) {
			k := args[0].I64
			b := vector.NewBatch([]vector.Type{vector.Int64}, int(k))
			for i := int64(0); i < k; i++ {
				b.Vecs[0].AppendInt64(i)
			}
			return &catalog.Result{
				Schema:  catalog.Schema{{Name: "n", Typ: vector.Int64}},
				Batches: []*vector.Batch{b},
			}, nil
		},
	})
	n := plan.NewTableFn("seq", vector.NewInt64Datum(42))
	res := runPlan(t, cat, n)
	if res.Rows() != 42 {
		t.Fatalf("rows = %d, want 42", res.Rows())
	}
}

// TestCostAndRowsTracked pins what the executor counts for an aggregation
// over a scan — 1000 rows scanned, 4 groups emitted — which is all the
// recycler prices the subtree's cost from.
func TestCostAndRowsTracked(t *testing.T) {
	cat := testCatalog()
	n := plan.NewAggregate(plan.NewScan("emp", "dept", "salary"),
		[]string{"dept"}, plan.A(plan.Count, nil, "c"))
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	stats := make(map[*plan.Node]NodeStats)
	op, err := Build(ctx, n, nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, op); err != nil {
		t.Fatal(err)
	}
	if stats[n] != op {
		t.Fatalf("aggregate's stats entry is %T, not its operator", stats[n])
	}
	for node, want := range map[*plan.Node]int64{n: 4, n.Children[0]: 1000} {
		if got := stats[node].RowsOut(); got != want {
			t.Fatalf("%v: rows out = %d, want %d", node.Op, got, want)
		}
	}
}

func TestProgressMonotonicOnScan(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("emp", "id")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Cat: cat, VectorSize: 100}
	op, _ := Build(ctx, n, nil, nil)
	op.Open(ctx)
	last := 0.0
	for {
		b, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		p := op.Progress()
		if p < last || p > 1 {
			t.Fatalf("progress %v after %v", p, last)
		}
		last = p
	}
	if last != 1 {
		t.Fatalf("final progress = %v", last)
	}
	op.Close(ctx)
}

func TestDrain(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("emp", "id")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	op, _ := Build(ctx, n, nil, nil)
	rows, err := Drain(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1000 {
		t.Fatalf("drained %d rows", rows)
	}
}
