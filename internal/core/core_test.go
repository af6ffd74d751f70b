package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	t := catalog.NewTable("t", catalog.Schema{
		{Name: "a", Typ: vector.Int64},
		{Name: "b", Typ: vector.Float64},
		{Name: "c", Typ: vector.String},
		{Name: "d", Typ: vector.Date},
	})
	for i := 0; i < 10; i++ {
		t.AppendRows([]vector.Datum{
			vector.NewInt64Datum(int64(i)),
			vector.NewFloat64Datum(float64(i)),
			vector.NewStringDatum("x"),
			vector.NewDateDatum(int64(i)),
		})
	}
	cat.AddTable(t)
	return cat
}

// mustResolve resolves a plan against the test catalog.
func mustResolve(t *testing.T, cat *catalog.Catalog, n *plan.Node) *plan.Node {
	t.Helper()
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	return n
}

// selPlan builds select(a < hi) over scan(t;a,b).
func selPlan(t *testing.T, cat *catalog.Catalog, hi int64) *plan.Node {
	p := plan.NewSelect(plan.NewScan("t", "a", "b"),
		expr.Lt(expr.C("a"), expr.Int(hi)))
	return mustResolve(t, cat, p)
}

func TestMatchInsertThenExactMatch(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p1 := selPlan(t, cat, 5)
	res1 := r.MatchInsert(p1)
	if res1.Inserted != 2 || res1.Matched != 0 {
		t.Fatalf("first: inserted=%d matched=%d", res1.Inserted, res1.Matched)
	}
	p2 := selPlan(t, cat, 5)
	res2 := r.MatchInsert(p2)
	if res2.Inserted != 0 || res2.Matched != 2 {
		t.Fatalf("second: inserted=%d matched=%d", res2.Inserted, res2.Matched)
	}
	if r.Graph().Size() != 2 {
		t.Fatalf("graph size = %d", r.Graph().Size())
	}
	// Same graph nodes.
	if res1.ByNode[p1].G != res2.ByNode[p2].G {
		t.Fatal("roots not unified")
	}
}

func TestMatchDistinguishesParameters(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	r.MatchInsert(selPlan(t, cat, 5))
	res := r.MatchInsert(selPlan(t, cat, 6))
	if res.Inserted != 1 || res.Matched != 1 {
		t.Fatalf("inserted=%d matched=%d", res.Inserted, res.Matched)
	}
	if r.Graph().Size() != 3 {
		t.Fatalf("graph size = %d", r.Graph().Size())
	}
}

func TestMatchUnifiesAcrossOutputNames(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	agg1 := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "b"),
		[]string{"a"}, plan.A(plan.Sum, expr.C("b"), "alpha")))
	agg2 := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "b"),
		[]string{"a"}, plan.A(plan.Sum, expr.C("b"), "beta")))
	r.MatchInsert(agg1)
	res := r.MatchInsert(agg2)
	if res.Inserted != 0 {
		t.Fatalf("same aggregation with different alias must unify; inserted=%d", res.Inserted)
	}
	// The mapping must map beta to the graph name created for alpha.
	nm := res.ByNode[agg2]
	if nm.OutMap["beta"] == "" || nm.OutMap["beta"] == "beta" {
		t.Fatalf("OutMap = %v", nm.OutMap)
	}
}

func TestMatchMappingThroughRenamedColumns(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	// Project renames b to v1/v2; a select above references the renamed
	// column. The two query trees are the same operation.
	build := func(alias string) *plan.Node {
		pr := plan.NewProject(plan.NewScan("t", "a", "b"),
			plan.P(expr.C("a"), "k"),
			plan.P(expr.Mul(expr.C("b"), expr.Flt(2)), alias))
		sel := plan.NewSelect(pr, expr.Gt(expr.C(alias), expr.Flt(1)))
		return mustResolve(t, cat, sel)
	}
	r.MatchInsert(build("v1"))
	res := r.MatchInsert(build("v2"))
	if res.Inserted != 0 {
		t.Fatalf("renamed-column trees must unify; inserted=%d", res.Inserted)
	}
}

func TestSharedSubtreeUnified(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	r.MatchInsert(selPlan(t, cat, 5))
	// A different parent over the same select subtree.
	agg := mustResolve(t, cat, plan.NewAggregate(
		plan.NewSelect(plan.NewScan("t", "a", "b"), expr.Lt(expr.C("a"), expr.Int(5))),
		nil, plan.A(plan.Count, nil, "c")))
	res := r.MatchInsert(agg)
	if res.Matched != 2 || res.Inserted != 1 {
		t.Fatalf("matched=%d inserted=%d", res.Matched, res.Inserted)
	}
}

func TestAddRefsIncrementsExistedOnly(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p1 := selPlan(t, cat, 5)
	r.BeginQuery()
	m1 := r.MatchInsert(p1)
	r.AddRefs(p1, m1)
	// Nothing existed before the first query: hr stays 0.
	if hr := r.HR(m1.ByNode[p1].G); hr != 0 {
		t.Fatalf("hr after first query = %v", hr)
	}
	p2 := selPlan(t, cat, 5)
	r.BeginQuery()
	m2 := r.MatchInsert(p2)
	r.AddRefs(p2, m2)
	if hr := r.HR(m2.ByNode[p2].G); hr < 0.9 {
		t.Fatalf("hr after second query = %v, want ~1", hr)
	}
}

func TestAddRefsSkipsBelowMaterialized(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1 // no aging, exact arithmetic
	r := New(cfg)
	p1 := selPlan(t, cat, 5)
	r.BeginQuery()
	m1 := r.MatchInsert(p1)
	r.AddRefs(p1, m1)
	sel := m1.ByNode[p1].G
	scan := m1.ByNode[p1.Children[0]].G

	// Materialize the select's result.
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Float64}, 1)
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendFloat64(1)
	r.UpdateStats(sel, 1000, 1, 16)
	if !r.Admit(sel, []*vector.Batch{b}, 1, 16, 1000, -1) {
		t.Fatal("admit failed")
	}
	// Re-run the query: the select gets a ref, the scan must NOT (its
	// result would not be used; the cached select answers the query).
	p2 := selPlan(t, cat, 5)
	r.BeginQuery()
	m2 := r.MatchInsert(p2)
	r.AddRefs(p2, m2)
	if hr := r.HR(sel); hr != 1 {
		t.Fatalf("hr(sel) = %v, want 1", hr)
	}
	if hr := r.HR(scan); hr != 0 {
		t.Fatalf("hr(scan) = %v, want 0 (covered by materialized ancestor)", hr)
	}
}

// TestHRMaintenanceFig3 reproduces the paper's Fig. 3 walk-through: with
// sigma4 above sigma3, materializing sigma4 reduces h(sigma3) by h(sigma4);
// materializing pi5 (a parent of sigma4) then reduces h(sigma4) by h(pi5);
// h(sigma3) is unaffected by the second materialization.
func TestHRMaintenanceFig3(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	r := New(cfg)

	sigma3 := plan.NewSelect(plan.NewScan("t", "a", "b"), expr.Lt(expr.C("a"), expr.Int(100)))
	sigma4 := plan.NewSelect(sigma3, expr.Lt(expr.C("b"), expr.Flt(50)))
	pi5 := plan.NewProject(sigma4, plan.P(expr.C("a"), "a5"))
	root := mustResolve(t, cat, pi5)

	// Insert once, then reference the full tree 5 times and pi5 2 of
	// those times is implicit (single pattern here); set hr values
	// directly through repeated AddRefs of the same tree.
	r.BeginQuery()
	m := r.MatchInsert(root)
	r.AddRefs(root, m)
	for i := 0; i < 5; i++ {
		p := mustResolve(t, cat, plan.NewProject(
			plan.NewSelect(
				plan.NewSelect(plan.NewScan("t", "a", "b"), expr.Lt(expr.C("a"), expr.Int(100))),
				expr.Lt(expr.C("b"), expr.Flt(50))),
			plan.P(expr.C("a"), "a5")))
		r.BeginQuery()
		mm := r.MatchInsert(p)
		r.AddRefs(p, mm)
	}
	gSigma3 := m.ByNode[root.Children[0].Children[0]].G
	gSigma4 := m.ByNode[root.Children[0]].G
	gPi5 := m.ByNode[root].G
	h3, h4, h5 := r.HR(gSigma3), r.HR(gSigma4), r.HR(gPi5)
	if h3 != 5 || h4 != 5 || h5 != 5 {
		t.Fatalf("initial hr = %v %v %v, want 5 5 5", h3, h4, h5)
	}

	oneRow := func() []*vector.Batch {
		b := vector.NewBatch([]vector.Type{vector.Int64}, 1)
		b.Vecs[0].AppendInt64(1)
		return []*vector.Batch{b}
	}
	// Materialize sigma4: h(sigma3) -= h(sigma4) => 0.
	r.UpdateStats(gSigma4, 1000, 1, 8)
	if !r.Admit(gSigma4, oneRow(), 1, 8, 1000, -1) {
		t.Fatal("admit sigma4 failed")
	}
	if got := r.HR(gSigma3); got != 0 {
		t.Fatalf("h(sigma3) after sigma4 materialized = %v, want 0", got)
	}
	// Materialize pi5: h(sigma4) -= h(pi5) => 0; sigma3 unaffected.
	r.UpdateStats(gPi5, 1000, 1, 8)
	if !r.Admit(gPi5, oneRow(), 1, 8, 1000, -1) {
		t.Fatal("admit pi5 failed")
	}
	if got := r.HR(gSigma4); got != 0 {
		t.Fatalf("h(sigma4) after pi5 materialized = %v, want 0", got)
	}
	if got := r.HR(gSigma3); got != 0 {
		t.Fatalf("h(sigma3) must remain 0, got %v", got)
	}
	// Evict pi5: h(sigma4) += h(pi5) => 5 again; sigma3 still covered by
	// sigma4, stays 0.
	r.Evict(gPi5)
	if got := r.HR(gSigma4); got != 5 {
		t.Fatalf("h(sigma4) after pi5 evicted = %v, want 5", got)
	}
	if got := r.HR(gSigma3); got != 0 {
		t.Fatalf("h(sigma3) after pi5 evicted = %v, want 0", got)
	}
	// Evict sigma4: h(sigma3) += h(sigma4) => 5.
	r.Evict(gSigma4)
	if got := r.HR(gSigma3); got != 5 {
		t.Fatalf("h(sigma3) after sigma4 evicted = %v, want 5", got)
	}
}

func TestTrueCostSubtractsDMDs(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	r := New(cfg)
	root := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(root)
	sel := m.ByNode[root].G
	scan := m.ByNode[root.Children[0]].G
	r.UpdateStats(scan, 40000, 10, 80)
	r.UpdateStats(sel, 100000, 5, 40)
	if got := r.TrueCost(sel); got != 100000 {
		t.Fatalf("true cost without DMDs = %v", got)
	}
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Float64}, 1)
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendFloat64(1)
	if !r.Admit(scan, []*vector.Batch{b}, 10, 80, 40000, 1) {
		t.Fatal("admit scan failed")
	}
	if got := r.TrueCost(sel); got != 60000 {
		t.Fatalf("true cost with scan cached = %v, want 60ms", got)
	}
}

func TestAging(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	r := New(cfg)
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	r.AddRefs(p, m)
	p2 := selPlan(t, cat, 5)
	r.BeginQuery()
	m2 := r.MatchInsert(p2)
	r.AddRefs(p2, m2)
	g := m2.ByNode[p2].G
	if hr := r.HR(g); hr != 1 {
		t.Fatalf("hr = %v, want 1", hr)
	}
	// Four queries later the reference decays by alpha^4.
	for i := 0; i < 4; i++ {
		r.BeginQuery()
	}
	if hr := r.HR(g); hr != 1.0/16 {
		t.Fatalf("aged hr = %v, want 1/16", hr)
	}
}

func TestBenefitFormula(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	r := New(cfg)
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	r.AddRefs(p, m)
	p2 := selPlan(t, cat, 5)
	r.BeginQuery()
	m2 := r.MatchInsert(p2)
	r.AddRefs(p2, m2) // hr = 1
	g := m2.ByNode[p2].G
	r.UpdateStats(g, 2000, 100, 1000)
	// B = cost * hr / size = 2000 * 1 / 1000 work units per byte.
	if got := r.Benefit(g); got != 2 {
		t.Fatalf("benefit = %v, want 2", got)
	}
}

func TestCacheReplacementPolicy(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	cfg.CacheBytes = 100
	r := New(cfg)

	mk := func(hi int64, cost plan.Work) *Node {
		p := selPlan(t, cat, hi)
		r.BeginQuery()
		m := r.MatchInsert(p)
		r.AddRefs(p, m)
		// Second occurrence earns a reference.
		p2 := selPlan(t, cat, hi)
		r.BeginQuery()
		m2 := r.MatchInsert(p2)
		r.AddRefs(p2, m2)
		g := m2.ByNode[p2].G
		r.UpdateStats(g, cost, 5, 40)
		return g
	}
	row := func() []*vector.Batch {
		b := vector.NewBatch([]vector.Type{vector.Int64}, 1)
		b.Vecs[0].AppendInt64(1)
		return []*vector.Batch{b}
	}
	cheap := mk(1, 10000)
	costly := mk(2, 10000000)
	if !r.Admit(cheap, row(), 5, 40, 10000, -1) {
		t.Fatal("admit cheap failed")
	}
	if !r.Admit(costly, row(), 5, 40, 10000000, -1) {
		// 40 + 40 <= 100: fits without eviction.
		t.Fatal("admit costly failed")
	}
	// Third entry of the same size group: must evict the cheap one.
	mid := mk(3, 1000000)
	if !r.Admit(mid, row(), 5, 40, 1000000, -1) {
		t.Fatal("admit mid failed")
	}
	st := r.Stats()
	if st.CacheEntries != 2 {
		t.Fatalf("entries = %d, want 2", st.CacheEntries)
	}
	if r.Cached(cheap) != nil {
		t.Fatal("cheap entry should have been evicted")
	}
	e := r.Cached(costly)
	if e == nil {
		t.Fatal("costly entry should survive")
	}
	r.Release(e)
	// A low-benefit result must be rejected rather than evicting better.
	low := mk(4, 1)
	if r.Admit(low, row(), 5, 40, 1, -1) {
		t.Fatal("low-benefit result should be rejected")
	}
}

func TestCacheRejectsOversized(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.CacheBytes = 10
	r := New(cfg)
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	g := m.ByNode[p].G
	r.UpdateStats(g, 1000000, 5, 40)
	if r.Admit(g, nil, 5, 40, 1000000, 1) {
		t.Fatal("oversized result must be rejected")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	cfg.CacheBytes = 50
	r := New(cfg)
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	g := m.ByNode[p].G
	r.UpdateStats(g, 1000, 5, 40)
	if !r.Admit(g, nil, 5, 40, 1000, 1) {
		t.Fatal("admit failed")
	}
	e := r.Cached(g) // pins
	if e == nil {
		t.Fatal("no entry")
	}
	r.FlushCache()
	if r.Stats().CacheEntries != 1 {
		t.Fatal("pinned entry must survive flush")
	}
	r.Release(e)
	r.FlushCache()
	if r.Stats().CacheEntries != 0 {
		t.Fatal("flush after release must evict")
	}
}

func TestWouldAdmit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 100
	r := New(cfg)
	if !r.WouldAdmit(0.5, 40) {
		t.Fatal("empty cache must admit")
	}
	if r.WouldAdmit(0.5, 200) {
		t.Fatal("oversized must not admit")
	}
	if r.WouldAdmit(0.5, 0) {
		t.Fatal("zero size is invalid")
	}
}

// TestConcurrentMatchInsertUnifies: concurrent inserts of the same plans
// unify, and the optimizer's read-only Match, run alongside them, only ever
// finds nodes that are wired to the children it matched.
func TestConcurrentMatchInsertUnifies(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	const workers = 16
	sel := func(i int) (*plan.Node, error) {
		p := plan.NewSelect(plan.NewScan("t", "a", "b"),
			expr.Lt(expr.C("a"), expr.Int(int64(i%5))))
		return p, p.Resolve(cat)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p, err := sel(i)
				if err != nil {
					t.Error(err)
					return
				}
				if w%4 != 3 {
					r.BeginQuery()
					m := r.MatchInsert(p)
					r.AddRefs(p, m)
					continue
				}
				scan := r.Graph().Match(p.Children[0], nil)
				if scan == nil {
					continue
				}
				if nm := r.Graph().Match(p, []*NodeMatch{scan}); nm != nil &&
					(nm.G.Op != plan.Select || nm.G.Children[0] != scan.G) {
					t.Errorf("Match returned %s over %s", nm.G.Describe(), scan.G.Describe())
				}
			}
		}()
	}
	wg.Wait()
	// 1 scan + 5 distinct selects regardless of concurrency.
	if got := r.Graph().Size(); got != 6 {
		t.Fatalf("graph size = %d, want 6", got)
	}
	for i := 0; i < 5; i++ {
		p, err := sel(i)
		if err != nil {
			t.Fatal(err)
		}
		if m := r.MatchInsert(p); m.Inserted != 0 || !matchesBottomUp(r.Graph(), p, m) {
			t.Fatalf("a<%d: inserted %d after the stress, or Match disagrees", i, m.Inserted)
		}
	}
}

func TestInflightProducerAndWaiter(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	g := m.ByNode[p].G
	if !r.BeginInflight(g) {
		t.Fatal("first BeginInflight must win")
	}
	if r.BeginInflight(g) {
		t.Fatal("second BeginInflight must lose")
	}
	if !r.Inflight(g) {
		t.Fatal("Inflight should report true")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e, ok := r.WaitInflightCtx(context.Background(), g, time.Second)
		if !ok || e == nil {
			t.Error("waiter should obtain the result")
			return
		}
		r.Release(e)
	}()
	time.Sleep(10 * time.Millisecond)
	r.UpdateStats(g, 1000, 1, 8)
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Float64}, 1)
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendFloat64(1)
	if !r.Admit(g, []*vector.Batch{b}, 1, 8, 1000, 1) {
		t.Fatal("admit failed")
	}
	r.FinishInflight(g)
	<-done
	if r.Inflight(g) {
		t.Fatal("inflight must be cleared")
	}
}

func TestInflightTimeout(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	g := m.ByNode[p].G
	r.BeginInflight(g)
	start := time.Now()
	_, ok := r.WaitInflightCtx(context.Background(), g, 20*time.Millisecond)
	if ok {
		t.Fatal("timeout wait must fail")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("wait returned too early")
	}
	r.FinishInflight(g)
}

func TestInflightContextCancel(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	g := m.ByNode[p].G
	r.BeginInflight(g)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, ok := r.WaitInflightCtx(ctx, g, time.Minute)
	if ok {
		t.Fatal("ctx-canceled wait must fail")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancellation did not cut the stall short")
	}
	r.FinishInflight(g)
}

func TestFinishInflightWithoutSuccess(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	g := m.ByNode[p].G
	r.BeginInflight(g)
	go func() {
		time.Sleep(5 * time.Millisecond)
		r.FinishInflight(g)
	}()
	if _, ok := r.WaitInflightCtx(context.Background(), g, time.Second); ok {
		t.Fatal("cancelled materialization must not be reusable")
	}
}

func TestEstimateResultBytes(t *testing.T) {
	n := &Node{OutTypes: []vector.Type{vector.Int64, vector.String}}
	got := EstimateResultBytes(n, 10)
	if got != 10*(8+16+16) {
		t.Fatalf("estimate = %d", got)
	}
	if EstimateResultBytes(n, -1) != -1 {
		t.Fatal("unknown cardinality must return -1")
	}
}

func TestStatsSnapshot(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	r.AddRefs(p, m)
	s := r.Stats()
	if s.Queries != 1 || s.NodesInserted != 2 || s.GraphNodes != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MatchTime <= 0 {
		t.Fatal("match time not recorded")
	}
}

// TestStallReuseCountsNoReuse: a waiter that replays a producer's result
// counts a stall reuse (CountStall, by the caller), not an exact reuse.
func TestStallReuseCountsNoReuse(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	if !r.BeginInflight(g) {
		t.Fatal("BeginInflight refused")
	}
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Float64}, 1)
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendFloat64(1)
	if !r.Admit(g, []*vector.Batch{b}, 1, 8, 1000, 1) {
		t.Fatal("admit failed")
	}
	r.FinishInflightShared(g, []*vector.Batch{b}, 1, 8, nil)
	e, ok := r.WaitInflightCtx(context.Background(), g, time.Second)
	if !ok || e == nil {
		t.Fatal("waiter should obtain the cached result")
	}
	r.Release(e)
	if got := r.Stats().Reuses; got != 0 {
		t.Fatalf("a stall's replay counted %d exact reuses", got)
	}
}

// TestReuseRootCountsLikeTheFullPass: a root probe that hits counts one
// query, the plan's nodes as matched, one reference on the root and one
// reuse, and pins the entry; one that misses or is refused counts nothing.
func TestReuseRootCountsLikeTheFullPass(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	r := New(cfg)
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	accept := func(*Entry) bool { return true }

	before := r.Stats()
	if e, _ := r.ReuseRoot(p, g, accept); e != nil {
		t.Fatal("a root with no cached result hit")
	}
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Float64}, 1)
	if !r.Admit(g, []*vector.Batch{b}, 1, 8, 1000, 1) {
		t.Fatal("admit failed")
	}
	if e, _ := r.ReuseRoot(p, g, func(*Entry) bool { return false }); e != nil {
		t.Fatal("a refused entry hit")
	}
	if e := g.cached.Load(); e.Pins() != 0 {
		t.Fatal("a refused probe left the entry pinned")
	}
	mid := r.Stats()
	if mid.Queries != before.Queries || mid.NodesMatched != before.NodesMatched || mid.Reuses != before.Reuses {
		t.Fatalf("declined probes counted: %+v -> %+v", before, mid)
	}
	hr := r.HR(g)
	e, m := r.ReuseRoot(p, g, accept)
	if e == nil || e.Pins() != 1 {
		t.Fatal("a valid cached root did not hit pinned")
	}
	if m.Matched != 2 || m.Inserted != 0 {
		t.Fatalf("root hit reported %d matched, %d inserted; want 2 and 0", m.Matched, m.Inserted)
	}
	r.Release(e)
	after := r.Stats()
	if after.Queries != mid.Queries+1 || after.NodesMatched != mid.NodesMatched+2 ||
		after.NodesInserted != mid.NodesInserted || after.Reuses != mid.Reuses+1 {
		t.Fatalf("root hit counted %+v -> %+v", mid, after)
	}
	if got := r.HR(g); got != hr+1 {
		t.Fatalf("root HR %v -> %v, want one reference", hr, got)
	}
}
