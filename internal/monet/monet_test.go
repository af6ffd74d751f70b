package monet

import (
	"testing"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/expr"
	"recycledb/internal/opt"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	t := catalog.NewTable("t", catalog.Schema{
		{Name: "k", Typ: vector.Int64},
		{Name: "v", Typ: vector.Float64},
	})
	w := t.BeginWrite()
	ap := w.Appender()
	for i := 0; i < 2000; i++ {
		ap.Int64(0, int64(i%10))
		ap.Float64(1, float64(i))
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(t)
	return cat
}

func testQuery() *plan.Node {
	return plan.NewAggregate(
		plan.NewSelect(plan.NewScan("t", "k", "v"),
			expr.Gt(expr.C("v"), expr.Flt(100))),
		[]string{"k"},
		plan.A(plan.Sum, expr.C("v"), "total"))
}

func TestExecuteMatchesPipelined(t *testing.T) {
	cat := testCatalog()
	e := New(cat, nil)
	got, err := e.Execute(testQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Reference: pipelined engine.
	q := testQuery()
	if err := q.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewCtx(cat)
	op, _ := exec.Build(ctx, q, nil, nil)
	want, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("rows %d vs %d", got.Rows(), want.Rows())
	}
	sum := func(r *catalog.Result) float64 {
		var s float64
		for _, b := range r.Batches {
			for _, x := range b.Vecs[1].F64 {
				s += x
			}
		}
		return s
	}
	if d := sum(got) - sum(want); d > 1e-6 || d < -1e-6 {
		t.Fatalf("totals differ: %v vs %v", sum(got), sum(want))
	}
}

func TestRecyclerAdmitsAllAndHits(t *testing.T) {
	cat := testCatalog()
	rec := NewRecycler(0)
	e := New(cat, rec)
	if _, err := e.Execute(testQuery()); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	// Scan, select, aggregate: three intermediates admitted.
	if st.Admitted != 3 {
		t.Fatalf("admitted = %d, want 3", st.Admitted)
	}
	if _, err := e.Execute(testQuery()); err != nil {
		t.Fatal(err)
	}
	st = rec.Stats()
	if st.Hits == 0 {
		t.Fatal("second run should hit the cache")
	}
	// The root hit means no new admissions.
	if st.Admitted != 3 {
		t.Fatalf("admitted grew to %d", st.Admitted)
	}
}

func TestRecyclerKeepsAllIntermediates(t *testing.T) {
	// The defining property vs. the pipelined recycler: every node of the
	// query is cached, so cache usage approximates the sum of all
	// intermediate sizes (scan included).
	cat := testCatalog()
	rec := NewRecycler(0)
	e := New(cat, rec)
	e.Execute(testQuery())
	tbl, _ := cat.Table("t")
	if rec.Stats().Used < tbl.Bytes() {
		t.Fatalf("cache %d bytes < base table %d bytes; scan not kept?",
			rec.Stats().Used, tbl.Bytes())
	}
}

func TestRecyclerBudgetEviction(t *testing.T) {
	cat := testCatalog()
	rec := NewRecycler(1024) // tiny: the scan result cannot fit
	e := New(cat, rec)
	if _, err := e.Execute(testQuery()); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Used > 1024 {
		t.Fatalf("budget exceeded: %d", st.Used)
	}
}

func TestRecyclerFlush(t *testing.T) {
	cat := testCatalog()
	rec := NewRecycler(0)
	e := New(cat, rec)
	e.Execute(testQuery())
	rec.Flush()
	if rec.Stats().Entries != 0 || rec.Stats().Used != 0 {
		t.Fatal("flush did not clear the cache")
	}
	if _, err := e.Execute(testQuery()); err != nil {
		t.Fatal(err)
	}
	if rec.Stats().Admitted < 6 {
		t.Fatal("re-execution should re-admit intermediates")
	}
}

func TestRecyclerSpeedsUpRepeats(t *testing.T) {
	cat := testCatalog()
	rec := NewRecycler(0)
	e := New(cat, rec)
	t0 := time.Now()
	e.Execute(testQuery())
	cold := time.Since(t0)
	t0 = time.Now()
	e.Execute(testQuery())
	warm := time.Since(t0)
	if warm > cold*2 {
		t.Fatalf("warm run slower than cold: %v vs %v", warm, cold)
	}
}

func TestSubtreeKeyDistinguishes(t *testing.T) {
	a := testQuery()
	b := plan.NewAggregate(
		plan.NewSelect(plan.NewScan("t", "k", "v"),
			expr.Gt(expr.C("v"), expr.Flt(999))),
		[]string{"k"},
		plan.A(plan.Sum, expr.C("v"), "total"))
	if opt.ShapeKey(a) == opt.ShapeKey(b) {
		t.Fatal("different predicates must have different keys")
	}
	if opt.ShapeKey(a) != opt.ShapeKey(testQuery()) {
		t.Fatal("identical plans must have identical keys")
	}
	// A cached result is replayed under the names it was computed with, so
	// an alias is part of the key.
	c := testQuery()
	c.Aggs[0].As = "sum"
	if opt.ShapeKey(a) == opt.ShapeKey(c) {
		t.Fatal("different aliases must have different keys")
	}
}
