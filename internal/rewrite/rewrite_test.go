package rewrite

import (
	"sync/atomic"
	"testing"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/exec"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// fixture builds a catalog with one table and a rewriter in the given mode.
func fixture(t *testing.T, mode Mode) (*Rewriter, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	tbl := catalog.NewTable("t", catalog.Schema{
		{Name: "k", Typ: vector.Int64},
		{Name: "grp", Typ: vector.String},
		{Name: "v", Typ: vector.Float64},
		{Name: "d", Typ: vector.Date},
	})
	w := tbl.BeginWrite()
	ap := w.Appender()
	groups := []string{"a", "b", "c"}
	base := vector.MustParseDate("1995-01-01")
	for i := 0; i < 5000; i++ {
		ap.Int64(0, int64(i))
		ap.String(1, groups[i%3])
		ap.Float64(2, float64(i%97))
		ap.Int64(3, base+int64(i%1400))
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(tbl)
	cfg := core.DefaultConfig()
	cfg.Alpha = 1
	rec := core.New(cfg)
	return NewRewriter(rec, cat, mode), cat
}

// run executes a rewritten query and annotates the graph.
func run(t *testing.T, rw *Rewriter, res *Result) int64 {
	t.Helper()
	rows := execute(t, rw, res)
	rw.Annotate(res)
	return rows
}

// execute runs a rewritten query without annotating the graph.
func execute(t *testing.T, rw *Rewriter, res *Result) int64 {
	t.Helper()
	ctx := exec.NewCtx(rw.Cat)
	op, err := exec.Build(ctx, res.Exec, res.Decor, res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return int64(out.Rows())
}

func aggQuery(t *testing.T, cat *catalog.Catalog, hi float64) *plan.Node {
	t.Helper()
	q := plan.NewAggregate(
		plan.NewSelect(plan.NewScan("t", "grp", "v"),
			expr.Lt(expr.C("v"), expr.Flt(hi))),
		[]string{"grp"},
		plan.A(plan.Sum, expr.C("v"), "total"))
	if err := q.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestOffModeIsInert(t *testing.T) {
	rw, cat := fixture(t, Off)
	res, err := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match != nil || len(res.Decor) != 0 {
		t.Fatal("off mode must not touch the recycler")
	}
	if rw.Rec.Graph().Size() != 0 {
		t.Fatal("off mode must not grow the graph")
	}
}

func TestHistoryLifecycle(t *testing.T) {
	rw, cat := fixture(t, History)
	// 1st sight: no stores, no reuse.
	r1, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r1.Record.Stores != 0 || r1.Record.Reused != 0 {
		t.Fatalf("first sight: %+v", r1)
	}
	run(t, rw, r1)
	// 2nd sight: history store injected.
	r2, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r2.Record.Stores == 0 {
		t.Fatalf("second sight should store: %+v", r2)
	}
	run(t, rw, r2)
	if r2.Record.Materialized.Load() == 0 {
		t.Fatal("store did not commit")
	}
	// 3rd sight: reuse.
	r3, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r3.Record.Reused == 0 {
		t.Fatalf("third sight should reuse: %+v", r3)
	}
	rows := run(t, rw, r3)
	if rows != 3 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestHistoryNeverSpeculates(t *testing.T) {
	rw, cat := fixture(t, History)
	r, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r.Record.SpecStores != 0 {
		t.Fatal("history mode must not speculate")
	}
}

func TestSpeculativeStoresFirstSight(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	r1, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r1.Record.SpecStores == 0 {
		t.Fatalf("speculation should target the aggregate: %+v", r1)
	}
	run(t, rw, r1)
	r2, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r2.Record.Reused == 0 {
		t.Fatal("second sight should reuse the speculated result")
	}
	run(t, rw, r2)
}

func TestSpeculationBufferCapCancels(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	// A tiny speculation budget forces cancellation on a wide result.
	cfg := core.DefaultConfig()
	cfg.Alpha = 1
	cfg.MaxSpeculateBytes = 64
	rw.Rec = core.New(cfg)
	q := plan.NewSort(plan.NewScan("t"), plan.SortKey{Col: "v"}) // big result
	if err := q.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r, _ := rw.Rewrite(q, nil)
	run(t, rw, r)
	if r.Record.Materialized.Load() != 0 {
		t.Fatal("oversized speculation must cancel")
	}
	if rw.Rec.Stats().SpecCancels == 0 {
		t.Fatal("cancel not recorded")
	}
}

// TestAnnotateRecordsCosts pins the pricing walk exactly over a plan run
// plain and under each decoration: a node's base cost is the weight table
// over the rows execution counted, children included — as a speculative
// store's admission sees it, as Annotate records it, after a wait that fell
// back to recomputing, and over a replayed leaf (the replay's work plus the
// leaf's stored base cost, Eq. 2).
func TestAnnotateRecordsCosts(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	cfg := core.DefaultConfig()
	cfg.Alpha = 1
	cfg.StallTimeout = 20 * time.Millisecond
	rw.Rec = core.New(cfg)

	// aggQuery(50) = aggregate(grp; sum v) over select(v < 50) over a
	// two-column scan of t's 5000 rows, v = row % 97.
	var pass int64
	for i := 0; i < 5000; i++ {
		if i%97 < 50 {
			pass++
		}
	}
	scanW := plan.OpWork(plan.Scan, 2, 5000)
	selW := scanW + plan.OpWork(plan.Select, 0, pass, 5000)
	aggW := selW + plan.OpWork(plan.Aggregate, 0, 3, pass)
	type want struct {
		cost plan.Work
		rows int64
	}
	check := func(label string, r *Result, q *plan.Node, wants map[*plan.Node]want) {
		t.Helper()
		for n, w := range wants {
			cost, known, card, bytes := rw.Rec.NodeStats(r.Match.ByNode[n].G)
			if !known || cost != w.cost || card != w.rows || bytes <= 0 {
				t.Fatalf("%s: %v annotated cost=%d known=%v card=%d bytes=%d, want cost=%d card=%d",
					label, n.Op, cost, known, card, bytes, w.cost, w.rows)
			}
		}
	}

	// Plain run, speculative store at the root: admission takes the
	// store's priced cost as the never-measured root's first sample.
	q := aggQuery(t, cat, 50)
	r, _ := rw.Rewrite(q, nil)
	if r.Record.SpecStores != 1 || r.Decor[q] == nil || r.Decor[q].Store == nil {
		t.Fatalf("want one speculative store at the root: %+v", r)
	}
	execute(t, rw, r)
	g := r.Match.ByNode[q].G
	if cost, known, _, _ := rw.Rec.NodeStats(g); !known || cost != aggW {
		t.Fatalf("store admitted cost %d (known %v), want %d", cost, known, aggW)
	}
	rw.Annotate(r)
	sel, scan := q.Children[0], q.Children[0].Children[0]
	check("plain", r, q, map[*plan.Node]want{q: {aggW, 3}, sel: {selW, pass}, scan: {scanW, 5000}})

	// A wait whose producer never finishes falls back to recomputing: the
	// fallback is priced like a plain run.
	rw.Rec.Evict(g)
	rw.Rec.UpdateStats(g, 1, 3, 0)
	rw.Rec.BeginInflight(g)
	q = aggQuery(t, cat, 50)
	r, _ = rw.Rewrite(q, nil)
	if r.Record.Waits != 1 || r.Decor[q] == nil || r.Decor[q].Wait == nil {
		t.Fatalf("want a wait at the root: %+v", r)
	}
	run(t, rw, r)
	rw.Rec.FinishInflight(g)
	sel, scan = q.Children[0], q.Children[0].Children[0]
	check("wait fallback", r, q, map[*plan.Node]want{q: {aggW, 3}, sel: {selW, pass}, scan: {scanW, 5000}})

	// A cached select under the aggregate: the root pays the replay of the
	// select's rows and carries the select's stored base cost.
	selOnly := q.Children[0].Clone()
	if err := selOnly.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewCtx(cat)
	op, err := exec.Build(ctx, selOnly, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	gSel := r.Match.ByNode[sel].G
	if !rw.Rec.Admit(gSel, res.Batches, pass, 1, selW, -1) {
		t.Fatal("select result not admitted")
	}
	q = aggQuery(t, cat, 50)
	r, _ = rw.Rewrite(q, nil)
	if r.Record.Reused != 1 || r.Decor[q.Children[0]] == nil || r.Decor[q.Children[0]].Reuse == nil {
		t.Fatalf("want the select replayed: %+v", r)
	}
	run(t, rw, r)
	replayW := plan.ReplayWork(pass, 0) + plan.OpWork(plan.Aggregate, 0, 3, pass)
	check("reuse leaf", r, q, map[*plan.Node]want{q: {replayW + selW, 3}})
}

// TestPricingWalkZeroAlloc: a speculative store prices its subtree at every
// batch, so the walk must not allocate.
func TestPricingWalkZeroAlloc(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	q := aggQuery(t, cat, 50)
	r, _ := rw.Rewrite(q, nil)
	execute(t, rw, r)
	if avg := testing.AllocsPerRun(100, func() { rw.price(r, q, nil) }); avg != 0 {
		t.Fatalf("pricing walk allocates %.1f objects per call, want 0", avg)
	}
}

func TestAnnotateAddsReusedBaseCost(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	// Execute & cache the select subtree via its parent query twice.
	sel := func() *plan.Node {
		q := plan.NewSelect(plan.NewScan("t", "grp", "v"),
			expr.Lt(expr.C("v"), expr.Flt(50)))
		if err := q.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return q
	}
	r1, _ := rw.Rewrite(sel(), nil)
	run(t, rw, r1)
	selCost, _, _, _ := rw.Rec.NodeStats(r1.Match.ByNode[r1.Exec].G)
	r2, _ := rw.Rewrite(sel(), nil)
	run(t, rw, r2)
	// Third run reuses; an aggregate above it must still account the
	// select's base cost in its own bcost (Eq. 2 bookkeeping).
	q := aggQuery(t, cat, 50)
	r3, _ := rw.Rewrite(q, nil)
	if r3.Record.Reused == 0 {
		t.Fatalf("expected select reuse: %+v", r3)
	}
	run(t, rw, r3)
	aggCost, known, _, _ := rw.Rec.NodeStats(r3.Match.ByNode[q].G)
	if !known {
		t.Fatal("agg cost unknown")
	}
	if aggCost < selCost {
		t.Fatalf("agg bcost %v must include reused select bcost %v", aggCost, selCost)
	}
}

func TestStallPlansWaitWhenInflight(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	q1 := aggQuery(t, cat, 50)
	r1, _ := rw.Rewrite(q1, nil)
	run(t, rw, r1) // stats known now; the result was speculated into cache
	// Evict it and register an inflight producer by hand, as if another
	// query were materializing it right now.
	g := r1.Match.ByNode[q1].G
	rw.Rec.Evict(g)
	if !rw.Rec.BeginInflight(g) {
		t.Fatal("inflight registration failed")
	}
	r2, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r2.Record.Waits == 0 {
		t.Fatalf("expected a planned stall: %+v", r2)
	}
	// Finish the materialization concurrently so the waiter reuses it.
	go func() {
		time.Sleep(5 * time.Millisecond)
		b := vector.NewBatch([]vector.Type{vector.String, vector.Float64}, 1)
		b.Vecs[0].AppendString("a")
		b.Vecs[1].AppendFloat64(1)
		rw.Rec.Admit(g, []*vector.Batch{b}, 1, 24, 1000, -1)
		rw.Rec.FinishInflight(g)
	}()
	rows := run(t, rw, r2)
	if rows != 1 {
		t.Fatalf("waiter should replay the 1-row result, got %d", rows)
	}
	if rw.Rec.Stats().StallReuses == 0 {
		t.Fatal("stall reuse not recorded")
	}
	// The stall reused: the root is priced as a replay of its one row,
	// carrying its stored base cost.
	stored, _, _, _ := rw.Rec.NodeStats(g)
	if work, subst := rw.price(r2, r2.Exec, nil); work != plan.ReplayWork(1, 0) || subst != stored {
		t.Fatalf("reused wait priced work=%d subst=%d, want %d and %d", work, subst, plan.ReplayWork(1, 0), stored)
	}
}

func TestStallTimeoutFallsBack(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	cfg := core.DefaultConfig()
	cfg.Alpha = 1
	cfg.StallTimeout = 20 * time.Millisecond
	rw.Rec = core.New(cfg)
	q1 := aggQuery(t, cat, 50)
	r1, _ := rw.Rewrite(q1, nil)
	run(t, rw, r1)
	g := r1.Match.ByNode[q1].G
	rw.Rec.Evict(g)
	rw.Rec.BeginInflight(g) // never finished
	r2, _ := rw.Rewrite(aggQuery(t, cat, 50), nil)
	if r2.Record.Waits == 0 {
		t.Fatal("expected a planned stall")
	}
	rows := run(t, rw, r2) // must fall back to recomputation
	if rows != 3 {
		t.Fatalf("fallback rows = %d", rows)
	}
	rw.Rec.FinishInflight(g)
}

func TestProactiveTopNWideningPlan(t *testing.T) {
	rw, cat := fixture(t, Proactive)
	q := plan.NewTopN(plan.NewScan("t", "k", "v"),
		[]plan.SortKey{{Col: "v", Desc: true}}, 10)
	if err := q.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r, err := rw.Rewrite(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Record.ProactiveApplied {
		t.Fatal("top-N widening should apply")
	}
	// The executed tree is topN(10) over topN(WideTopN).
	if r.Exec.Op != plan.TopN || r.Exec.Children[0].Op != plan.TopN ||
		r.Exec.Children[0].N != WideTopN {
		t.Fatalf("unexpected shape:\n%s", r.Exec)
	}
	if rows := run(t, rw, r); rows != 10 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestProactiveCubeGateNeedsEvidence(t *testing.T) {
	rw, cat := fixture(t, Proactive)
	q := func() *plan.Node {
		q := plan.NewAggregate(
			plan.NewSelect(plan.NewScan("t", "grp", "v"),
				expr.Eq(expr.C("grp"), expr.Str("a"))),
			nil,
			plan.A(plan.Sum, expr.C("v"), "total"))
		if err := q.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return q
	}
	// First trigger: not enough evidence, original plan executes.
	r1, _ := rw.Rewrite(q(), nil)
	if r1.Record.ProactiveApplied {
		t.Fatal("cube must not execute on first trigger")
	}
	run(t, rw, r1)
	// Second trigger: the variant's references have accumulated.
	r2, _ := rw.Rewrite(q(), nil)
	if !r2.Record.ProactiveApplied {
		t.Fatalf("cube should execute on second trigger: %+v", r2)
	}
	if rows := run(t, rw, r2); rows != 1 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestDropStoresUnderWaits(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	q := aggQuery(t, cat, 60)
	r1, _ := rw.Rewrite(q, nil)
	run(t, rw, r1)
	// Force a wait at the root and a store below it, then verify cleanup.
	root := aggQuery(t, cat, 60)
	r2 := &Result{
		Exec:       root,
		Decor:      make(exec.Decorations),
		Match:      rw.Rec.MatchInsert(root),
		subst:      make(map[*plan.Node]*core.Node),
		waitReused: make(map[*plan.Node]*atomic.Bool),
	}
	g := r2.Match.ByNode[root].G
	sel := root.Children[0]
	gSel := r2.Match.ByNode[sel].G
	rw.planWait(root, g, r2)
	rw.Rec.BeginInflight(gSel)
	rw.attachStore(sel, gSel, r2, true)
	rw.dropStoresUnderWaits(root, r2, false)
	if d := r2.Decor[sel]; d != nil && d.Store != nil {
		t.Fatal("store under wait must be dropped")
	}
	if rw.Rec.Inflight(gSel) {
		t.Fatal("dropped store must release its registration")
	}
}

// TestProactiveCountsOnlySubstitutions: the cube gate pins a cached cube
// only to see that it exists; the recycler counts exactly the exact reuses
// each statement planned.
func TestProactiveCountsOnlySubstitutions(t *testing.T) {
	rw, cat := fixture(t, Proactive)
	q := func() *plan.Node {
		q := plan.NewAggregate(
			plan.NewSelect(plan.NewScan("t", "grp", "v"),
				expr.Eq(expr.C("grp"), expr.Str("b"))),
			nil,
			plan.A(plan.Sum, expr.C("v"), "total"))
		if err := q.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return q
	}
	reusedCube := false
	for i := 0; i < 4; i++ {
		before := rw.Rec.Stats().Reuses
		r, err := rw.Rewrite(q(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rw.Rec.Stats().Reuses - before; got != int64(r.Record.Reused) {
			t.Fatalf("trigger %d: recycler counted %d reuses, the statement planned %d", i, got, r.Record.Reused)
		}
		if r.Record.ProactiveApplied && r.Record.Reused > 0 {
			reusedCube = true
		}
		run(t, rw, r)
	}
	if !reusedCube {
		t.Fatal("no trigger reused the cached cube; the test shows nothing")
	}
}
