package recycledb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// loadSales populates a deterministic sales table:
// sales(region string[4], product int[20], amount float, qty int, day date).
func loadSales(e *Engine, rows int) {
	t := catalog.NewTable("sales", catalog.Schema{
		{Name: "region", Typ: vector.String},
		{Name: "product", Typ: vector.Int64},
		{Name: "amount", Typ: vector.Float64},
		{Name: "qty", Typ: vector.Int64},
		{Name: "day", Typ: vector.Date},
	})
	rng := rand.New(rand.NewSource(42))
	regions := []string{"north", "south", "east", "west"}
	base := vector.MustParseDate("1996-01-01")
	w := t.BeginWrite()
	ap := w.Appender()
	for i := 0; i < rows; i++ {
		ap.String(0, regions[rng.Intn(len(regions))])
		ap.Int64(1, int64(rng.Intn(20)))
		ap.Float64(2, float64(rng.Intn(10000))/100)
		ap.Int64(3, int64(1+rng.Intn(50)))
		ap.Int64(4, base+int64(rng.Intn(1095))) // 3 years
		ap.FinishRow()
	}
	w.Commit()
	e.Catalog().AddTable(t)
}

// revenueByRegion is the canonical test query: an aggregation over a
// selection, the paper's bread-and-butter recycling shape.
func revenueByRegion(minAmount float64) *Plan {
	return Aggregate(
		Select(Scan("sales", "region", "amount", "qty"),
			Gt(Col("amount"), Float(minAmount))),
		GroupBy("region"),
		Sum(Mul(Col("amount"), Col("qty")), "revenue"),
		CountAll("n"),
	)
}

// resultMap flattens a grouped result into a comparable map keyed by the
// first column.
func resultMap(t *testing.T, r *Result) map[string][]vector.Datum {
	t.Helper()
	out := make(map[string][]vector.Datum)
	for _, b := range r.Raw().Batches {
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			out[row[0].String()] = row[1:]
		}
	}
	return out
}

func sameResults(t *testing.T, a, b *Result) {
	t.Helper()
	ma, mb := resultMap(t, a), resultMap(t, b)
	if len(ma) != len(mb) {
		t.Fatalf("row counts differ: %d vs %d", len(ma), len(mb))
	}
	for k, va := range ma {
		vb, ok := mb[k]
		if !ok {
			t.Fatalf("key %s missing", k)
		}
		for i := range va {
			if !va[i].Equal(vb[i]) {
				// Tolerate float noise from re-aggregation order.
				if va[i].Typ == vector.Float64 && vb[i].Typ == vector.Float64 {
					d := va[i].F64 - vb[i].F64
					if d < 1e-6 && d > -1e-6 {
						continue
					}
				}
				t.Fatalf("key %s col %d: %v vs %v", k, i, va[i], vb[i])
			}
		}
	}
}

func TestExecuteOffMode(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 5000)
	r, err := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", r.Rows())
	}
	if got := e.Recycler().Stats().GraphNodes; got != 0 {
		t.Fatalf("OFF mode must not grow the graph, got %d nodes", got)
	}
}

func TestSpeculativeReusesFinalResult(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	r1, err := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.SpecStores == 0 {
		t.Fatal("first run should speculate on the aggregate")
	}
	r2, err := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Reused == 0 {
		t.Fatal("second run should reuse the cached result")
	}
	sameResults(t, r1, r2)
}

func TestHistoryStoresOnSecondSight(t *testing.T) {
	e := New(Config{Mode: History})
	loadSales(e, 5000)
	r1, _ := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if r1.Stats.Stores != 0 || r1.Stats.Reused != 0 {
		t.Fatalf("first sight must not store (stats: %+v)", r1.Stats)
	}
	r2, _ := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if r2.Stats.Stores == 0 {
		t.Fatalf("second sight should store (stats: %+v)", r2.Stats)
	}
	r3, _ := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if r3.Stats.Reused == 0 {
		t.Fatalf("third sight should reuse (stats: %+v)", r3.Stats)
	}
	sameResults(t, r1, r3)
}

func TestModesAgreeOnResults(t *testing.T) {
	queries := func() []*Plan {
		return []*Plan{
			revenueByRegion(10),
			revenueByRegion(50),
			Aggregate(
				Select(Scan("sales", "region", "product", "amount", "day"),
					Le(Col("day"), Date("1997-03-15"))),
				GroupBy("region"),
				Sum(Col("amount"), "total"),
				Avg(Col("amount"), "mean"),
			),
			TopN(Scan("sales", "product", "amount"),
				OrderBy(Desc("amount"), Asc("product")), 25),
		}
	}
	baseline := New(Config{Mode: Off})
	loadSales(baseline, 8000)
	var want []*Result
	for _, q := range queries() {
		r, err := baseline.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	for _, mode := range []Mode{History, Speculative, Proactive} {
		e := New(Config{Mode: mode})
		loadSales(e, 8000)
		// Run the workload three times so recycling kicks in.
		for round := 0; round < 3; round++ {
			for qi, q := range queries() {
				r, err := e.ExecuteContext(context.Background(), q)
				if err != nil {
					t.Fatalf("mode %v round %d query %d: %v", mode, round, qi, err)
				}
				sameResults(t, want[qi], r)
			}
		}
	}
}

func TestSubsumptionSelectDerivation(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	wide := Select(Scan("sales", "region", "amount"), Lt(Col("amount"), Float(90)))
	// Run the wide selection twice so its result is cached.
	if _, err := e.ExecuteContext(context.Background(), wide); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), wide); err != nil {
		t.Fatal(err)
	}
	// A strictly narrower selection must derive from the cached one.
	narrow := Select(Scan("sales", "region", "amount"), Lt(Col("amount"), Float(40)))
	r, err := e.ExecuteContext(context.Background(), narrow)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.SubsumptionReused == 0 {
		t.Fatalf("narrow selection should reuse by subsumption (stats %+v, rec %+v)",
			r.Stats, e.Recycler().Stats())
	}
	// Correctness: compare to OFF baseline.
	off := New(Config{Mode: Off})
	loadSales(off, 5000)
	wantR, _ := off.ExecuteContext(context.Background(), narrow)
	if wantR.Rows() != r.Rows() {
		t.Fatalf("subsumption result rows = %d, want %d", r.Rows(), wantR.Rows())
	}
}

func TestSubsumptionAggReaggregation(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	fine := Aggregate(Scan("sales", "region", "product", "qty"),
		GroupBy("region", "product"),
		Sum(Col("qty"), "total"), CountAll("n"))
	e.ExecuteContext(context.Background(), fine)
	e.ExecuteContext(context.Background(), fine) // cache it
	coarse := Aggregate(Scan("sales", "region", "product", "qty"),
		GroupBy("region"),
		Sum(Col("qty"), "total"), CountAll("n"))
	r, err := e.ExecuteContext(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.SubsumptionReused == 0 {
		t.Fatalf("coarse aggregate should re-aggregate the cached cube (stats %+v)", r.Stats)
	}
	off := New(Config{Mode: Off})
	loadSales(off, 5000)
	want, _ := off.ExecuteContext(context.Background(), coarse)
	sameResults(t, want, r)
}

func TestProactiveBinning(t *testing.T) {
	e := New(Config{Mode: Proactive})
	loadSales(e, 8000)
	q := func(day string) *Plan {
		return Aggregate(
			Select(Scan("sales", "region", "amount", "day"),
				Le(Col("day"), Date(day))),
			GroupBy("region"),
			Sum(Col("amount"), "total"),
			CountAll("n"),
		)
	}
	off := New(Config{Mode: Off})
	loadSales(off, 8000)

	days := []string{"1998-03-01", "1998-04-15", "1998-02-10", "1998-03-01"}
	sawProactive := false
	for _, d := range days {
		r, err := e.ExecuteContext(context.Background(), q(d))
		if err != nil {
			t.Fatal(err)
		}
		want, err := off.ExecuteContext(context.Background(), q(d))
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, want, r)
		if r.Stats.ProactiveApplied {
			sawProactive = true
		}
	}
	if !sawProactive {
		t.Fatalf("proactive binning never triggered (rec stats %+v)", e.Recycler().Stats())
	}
}

func TestProactiveCubeSelections(t *testing.T) {
	e := New(Config{Mode: Proactive})
	loadSales(e, 8000)
	// region has 4 distinct values: a selection on it qualifies for cube
	// caching with selections.
	q := func(region string) *Plan {
		return Aggregate(
			Select(Scan("sales", "region", "product", "amount"),
				Eq(Col("region"), Str(region))),
			GroupBy("product"),
			Sum(Col("amount"), "total"),
		)
	}
	off := New(Config{Mode: Off})
	loadSales(off, 8000)
	regions := []string{"north", "south", "east", "west", "north", "south"}
	sawProactive := false
	for _, reg := range regions {
		r, err := e.ExecuteContext(context.Background(), q(reg))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := off.ExecuteContext(context.Background(), q(reg))
		sameResults(t, want, r)
		if r.Stats.ProactiveApplied {
			sawProactive = true
		}
	}
	if !sawProactive {
		t.Fatal("cube caching with selections never triggered")
	}
	// Once the cube is cached, later differing parameters should hit it.
	r, _ := e.ExecuteContext(context.Background(), q("east"))
	if r.Stats.Reused == 0 && r.Stats.SubsumptionReused == 0 {
		t.Fatalf("cube should be reused across parameters (stats %+v)", r.Stats)
	}
}

func TestProactiveTopNWidening(t *testing.T) {
	// 40k rows: the widened top-N (10k rows) must cost more to recompute
	// than to copy, or speculation declines to store it.
	e := New(Config{Mode: Proactive})
	loadSales(e, 40000)
	q := func(n int) *Plan {
		return TopN(Scan("sales", "product", "amount"),
			OrderBy(Desc("amount"), Asc("product")), n)
	}
	r1, err := e.ExecuteContext(context.Background(), q(10))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Stats.ProactiveApplied {
		t.Fatalf("top-N widening should always apply under PA (stats %+v)", r1.Stats)
	}
	if r1.Rows() != 10 {
		t.Fatalf("rows = %d, want 10", r1.Rows())
	}
	// A different N should reuse the widened result.
	r2, err := e.ExecuteContext(context.Background(), q(50))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rows() != 50 {
		t.Fatalf("rows = %d, want 50", r2.Rows())
	}
	if r2.Stats.Reused == 0 && r2.Stats.SubsumptionReused == 0 {
		t.Fatalf("widened top-N should be reused (stats %+v)", r2.Stats)
	}
	// Correctness of the reused prefix.
	off := New(Config{Mode: Off})
	loadSales(off, 40000)
	want, _ := off.ExecuteContext(context.Background(), q(50))
	sameResults(t, want, r2)
}

func TestFlushCacheInvalidation(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	e.ExecuteContext(context.Background(), revenueByRegion(10))
	r2, _ := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if r2.Stats.Reused == 0 {
		t.Fatal("expected reuse before flush")
	}
	e.FlushCache()
	r3, _ := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if r3.Stats.Reused != 0 {
		t.Fatal("no reuse expected right after flush")
	}
	r4, _ := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if r4.Stats.Reused == 0 {
		t.Fatal("recycling should recover after flush")
	}
}

func TestConcurrentExecution(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	off := New(Config{Mode: Off})
	loadSales(off, 5000)
	want := make(map[float64]*Result)
	params := []float64{10, 20, 30, 40}
	for _, p := range params {
		r, err := off.ExecuteContext(context.Background(), revenueByRegion(p))
		if err != nil {
			t.Fatal(err)
		}
		want[p] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10; i++ {
				p := params[rng.Intn(len(params))]
				r, err := e.ExecuteContext(context.Background(), revenueByRegion(p))
				if err != nil {
					errs <- err
					return
				}
				ma, mb := resultMap(t, want[p]), resultMap(t, r)
				if len(ma) != len(mb) {
					errs <- fmt.Errorf("param %v: %d vs %d groups", p, len(ma), len(mb))
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Recycler().Stats()
	if st.Reuses == 0 {
		t.Fatalf("concurrent workload should reuse results: %+v", st)
	}
}

func TestCacheBounded(t *testing.T) {
	e := New(Config{Mode: Speculative, CacheBytes: 4096})
	loadSales(e, 5000)
	for i := 0; i < 20; i++ {
		if _, err := e.ExecuteContext(context.Background(), revenueByRegion(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Recycler().Stats()
	if st.CacheBytes > 4096 {
		t.Fatalf("cache exceeded bound: %d bytes", st.CacheBytes)
	}
}

func TestTableFunctionRecycling(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 100)
	calls := 0
	e.Catalog().AddFunc(&catalog.TableFunc{
		Name:   "expensive",
		Schema: catalog.Schema{{Name: "v", Typ: vector.Int64}},
		Invoke: func(c *catalog.Catalog, args []Datum) (*catalog.Result, error) {
			calls++
			b := vector.NewBatch([]vector.Type{vector.Int64}, 8)
			for i := int64(0); i < args[0].I64; i++ {
				b.Vecs[0].AppendInt64(i * i)
			}
			return &catalog.Result{
				Schema:  catalog.Schema{{Name: "v", Typ: vector.Int64}},
				Batches: []*vector.Batch{b},
			}, nil
		},
	})
	q := Aggregate(TableFn("expensive", IntDatum(100)), nil, Sum(Col("v"), "s"))
	r1, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	e.ExecuteContext(context.Background(), q)
	r3, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if calls >= 3 {
		t.Fatalf("function invoked %d times; recycling should have cut it", calls)
	}
	sameResults(t, r1, r3)
}

func TestStatsPopulated(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 1000)
	r, err := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Total <= 0 || r.Stats.Execution <= 0 {
		t.Fatalf("timings missing: %+v", r.Stats)
	}
	if r.Stats.Matching <= 0 {
		t.Fatalf("matching cost missing: %+v", r.Stats)
	}
	if r.Stats.Rows != 4 {
		t.Fatalf("rows = %d", r.Stats.Rows)
	}
}

func TestSetMode(t *testing.T) {
	e := New(Config{})
	if e.Mode() != Off {
		t.Fatal("default mode should be Off")
	}
	e.SetMode(Proactive)
	if e.Mode() != Proactive {
		t.Fatal("SetMode failed")
	}
}
