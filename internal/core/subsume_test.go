package core

import (
	"testing"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

func TestAnalyzePredSimple(t *testing.T) {
	iv, ok := AnalyzePred(expr.Lt(expr.C("a"), expr.Int(10)), expr.Ident)
	if !ok {
		t.Fatal("simple comparison must analyze")
	}
	v := iv["a"]
	if !v.HasHi || v.Hi.I64 != 10 || !v.HiOpen || v.HasLo {
		t.Fatalf("interval = %+v", v)
	}
}

func TestAnalyzePredConjunction(t *testing.T) {
	p := expr.AndOf(
		expr.Ge(expr.C("a"), expr.Int(1)),
		expr.Le(expr.C("a"), expr.Int(5)),
		expr.Eq(expr.C("c"), expr.Str("x")),
	)
	iv, ok := AnalyzePred(p, expr.Ident)
	if !ok {
		t.Fatal("conjunction must analyze")
	}
	a := iv["a"]
	if !a.HasLo || !a.HasHi || a.Lo.I64 != 1 || a.Hi.I64 != 5 || a.LoOpen || a.HiOpen {
		t.Fatalf("a interval = %+v", a)
	}
	c := iv["c"]
	if !c.HasLo || !c.HasHi || c.Lo.Str != "x" {
		t.Fatalf("c interval = %+v", c)
	}
}

func TestAnalyzePredFlippedOperands(t *testing.T) {
	// 10 > a is a < 10.
	iv, ok := AnalyzePred(expr.Gt(expr.Int(10), expr.C("a")), expr.Ident)
	if !ok {
		t.Fatal("flipped comparison must analyze")
	}
	v := iv["a"]
	if !v.HasHi || v.Hi.I64 != 10 || !v.HiOpen {
		t.Fatalf("interval = %+v", v)
	}
}

func TestAnalyzePredRejectsComplex(t *testing.T) {
	for _, p := range []expr.Expr{
		expr.OrOf(expr.Lt(expr.C("a"), expr.Int(1)), expr.Gt(expr.C("a"), expr.Int(5))),
		expr.LikeOf(expr.C("c"), "%x%"),
		expr.Ne(expr.C("a"), expr.Int(3)),
		expr.Lt(expr.Add(expr.C("a"), expr.Int(1)), expr.Int(3)),
	} {
		if _, ok := AnalyzePred(p, expr.Ident); ok {
			t.Fatalf("%T should not analyze", p)
		}
	}
}

func TestIntervalWithin(t *testing.T) {
	i5 := Interval{Hi: vector.NewInt64Datum(5), HasHi: true, HiOpen: true}
	i10 := Interval{Hi: vector.NewInt64Datum(10), HasHi: true, HiOpen: true}
	if !within(i5, i10) {
		t.Fatal("a<5 within a<10")
	}
	if within(i10, i5) {
		t.Fatal("a<10 not within a<5")
	}
	// Open/closed at the same bound.
	le5 := Interval{Hi: vector.NewInt64Datum(5), HasHi: true}
	if !within(i5, le5) {
		t.Fatal("a<5 within a<=5")
	}
	if within(le5, i5) {
		t.Fatal("a<=5 not within a<5")
	}
	// Unbounded outer accepts anything.
	if !within(i5, Interval{}) {
		t.Fatal("anything within unconstrained")
	}
	if within(Interval{}, i5) {
		t.Fatal("unconstrained not within bounded")
	}
}

func TestSelectionSubsumptionEdges(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	wide := selPlan(t, cat, 10) // a < 10
	r.MatchInsert(wide)
	narrow := selPlan(t, cat, 5) // a < 5
	m := r.MatchInsert(narrow)
	gNarrow := m.ByNode[narrow].G
	subs := gNarrow.Subsumers()
	if len(subs) != 1 {
		t.Fatalf("subsumers = %d, want 1", len(subs))
	}
	if subs[0].Params == gNarrow.Params {
		t.Fatal("node subsumes itself?")
	}
}

// TestLooserSiblingBecomesSubsumer inserts the tighter selection first, so
// the edge must be added to the existing sibling when the looser one arrives.
func TestLooserSiblingBecomesSubsumer(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	narrow := selPlan(t, cat, 5) // a < 5
	gNarrow := r.MatchInsert(narrow).ByNode[narrow].G
	wide := selPlan(t, cat, 10) // a < 10
	gWide := r.MatchInsert(wide).ByNode[wide].G
	if gWide == gNarrow {
		t.Fatal("a < 5 and a < 10 unified")
	}
	if subs := gNarrow.Subsumers(); len(subs) != 1 || subs[0] != gWide {
		t.Fatalf("a < 5 subsumers = %v, want exactly the a < 10 node", subs)
	}
	if subs := gWide.Subsumers(); len(subs) != 0 {
		t.Fatalf("a < 10 subsumers = %v, want none", subs)
	}
}

func TestSelectionSubsumptionTransitive(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	r.MatchInsert(selPlan(t, cat, 100))
	r.MatchInsert(selPlan(t, cat, 10))
	m := r.MatchInsert(selPlan(t, cat, 5))
	g5 := m.ByNode[m5root(m)].G
	subs := g5.Subsumers()
	if len(subs) != 2 {
		t.Fatalf("transitive subsumers = %d, want 2", len(subs))
	}
}

// TestSubsumersInInsertionOrder pins the order rewrite tries cached
// subsumers in: a node's direct subsumers come oldest first, whatever their
// parameters, so a<20, inserted before a<10, comes first.
func TestSubsumersInInsertionOrder(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	var want []*Node
	for _, hi := range []int64{20, 10} {
		p := selPlan(t, cat, hi)
		r.BeginQuery()
		g := r.MatchInsert(p).ByNode[p].G
		r.UpdateStats(g, 1000, 4, 64)
		if !r.Admit(g, mkBatch(4), 4, 64, 1000, 1) {
			t.Fatalf("a<%d not admitted", hi)
		}
		want = append(want, g)
	}
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	subs := r.Subsumers(r.MatchInsert(p).ByNode[p].G)
	if len(subs) != 2 || subs[0] != want[0] || subs[1] != want[1] {
		var got []string
		for _, s := range subs {
			got = append(got, s.Params)
		}
		t.Fatalf("Subsumers = %v, want [%s %s]", got, want[0].Params, want[1].Params)
	}
}

// m5root extracts the single root plan node of a match result.
func m5root(m *MatchResult) *plan.Node {
	for n, nm := range m.ByNode {
		if nm.G.Op == plan.Select {
			// The only select in this result set is the root.
			if len(n.Children) == 1 && n.Children[0].Op == plan.Scan {
				return n
			}
		}
	}
	return nil
}

func TestAggregateTupleSubsumption(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	fine := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "c", "b"),
		[]string{"a", "c"}, plan.A(plan.Sum, expr.C("b"), "s")))
	r.MatchInsert(fine)
	coarse := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "c", "b"),
		[]string{"a"}, plan.A(plan.Sum, expr.C("b"), "s")))
	m := r.MatchInsert(coarse)
	g := m.ByNode[coarse].G
	if len(g.Subsumers()) != 1 {
		t.Fatalf("coarse agg should be subsumed by fine agg, got %d", len(g.Subsumers()))
	}
}

func TestAggregateAvgNotTupleSubsumable(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	fine := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "c", "b"),
		[]string{"a", "c"}, plan.A(plan.Avg, expr.C("b"), "m")))
	r.MatchInsert(fine)
	coarse := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "c", "b"),
		[]string{"a"}, plan.A(plan.Avg, expr.C("b"), "m")))
	m := r.MatchInsert(coarse)
	if len(m.ByNode[coarse].G.Subsumers()) != 0 {
		t.Fatal("avg cannot be re-aggregated; no tuple subsumption")
	}
}

func TestAggregateColumnSubsumption(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	wide := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "b"),
		[]string{"a"},
		plan.A(plan.Sum, expr.C("b"), "s"),
		plan.A(plan.Min, expr.C("b"), "lo")))
	r.MatchInsert(wide)
	narrow := mustResolve(t, cat, plan.NewAggregate(plan.NewScan("t", "a", "b"),
		[]string{"a"}, plan.A(plan.Sum, expr.C("b"), "s")))
	m := r.MatchInsert(narrow)
	if len(m.ByNode[narrow].G.Subsumers()) != 1 {
		t.Fatal("narrow agg should be column-subsumed by wide agg")
	}
}

func TestTopNSubsumption(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	big := mustResolve(t, cat, plan.NewTopN(plan.NewScan("t", "a", "b"),
		[]plan.SortKey{{Col: "b", Desc: true}}, 10000))
	r.MatchInsert(big)
	small := mustResolve(t, cat, plan.NewTopN(plan.NewScan("t", "a", "b"),
		[]plan.SortKey{{Col: "b", Desc: true}}, 10))
	m := r.MatchInsert(small)
	if len(m.ByNode[small].G.Subsumers()) != 1 {
		t.Fatal("top-10 should be subsumed by top-10000")
	}
	// Different keys must not subsume.
	other := mustResolve(t, cat, plan.NewTopN(plan.NewScan("t", "a", "b"),
		[]plan.SortKey{{Col: "a"}}, 5))
	m2 := r.MatchInsert(other)
	if len(m2.ByNode[other].G.Subsumers()) != 0 {
		t.Fatal("different sort keys must not subsume")
	}
}

func TestSubsumptionRequiresSameChild(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	// Same predicates but over different scans: no subsumption.
	p1 := mustResolve(t, cat, plan.NewSelect(plan.NewScan("t", "a"),
		expr.Lt(expr.C("a"), expr.Int(10))))
	r.MatchInsert(p1)
	p2 := mustResolve(t, cat, plan.NewSelect(plan.NewScan("t", "a", "b"),
		expr.Lt(expr.C("a"), expr.Int(5))))
	m := r.MatchInsert(p2)
	if len(m.ByNode[p2].G.Subsumers()) != 0 {
		t.Fatal("different children must not subsume")
	}
}

func TestSubsumesDirectly(t *testing.T) {
	loose := &SubMeta{Intervals: map[string]Interval{
		"a": {Hi: vector.NewInt64Datum(10), HasHi: true},
	}, ok: true}
	strict := &SubMeta{Intervals: map[string]Interval{
		"a": {Hi: vector.NewInt64Datum(5), HasHi: true},
		"b": {Lo: vector.NewInt64Datum(0), HasLo: true},
	}, ok: true}
	if !subsumes(loose, strict, plan.Select) {
		t.Fatal("loose must subsume strict")
	}
	if subsumes(strict, loose, plan.Select) {
		t.Fatal("strict must not subsume loose")
	}
	if subsumes(nil, strict, plan.Select) || subsumes(loose, nil, plan.Select) {
		t.Fatal("nil meta never subsumes")
	}
}

func TestCmpDatumMixedNumeric(t *testing.T) {
	if cmpDatum(vector.NewInt64Datum(5), vector.NewFloat64Datum(5.0)) != 0 {
		t.Fatal("5 == 5.0")
	}
	if cmpDatum(vector.NewInt64Datum(4), vector.NewFloat64Datum(4.5)) != -1 {
		t.Fatal("4 < 4.5")
	}
}
