package plan

import (
	"strings"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// testCatalog builds a catalog with two small tables.
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	r := catalog.NewTable("r", catalog.Schema{
		{Name: "r_id", Typ: vector.Int64},
		{Name: "r_val", Typ: vector.Float64},
		{Name: "r_name", Typ: vector.String},
		{Name: "r_date", Typ: vector.Date},
	})
	s := catalog.NewTable("s", catalog.Schema{
		{Name: "s_id", Typ: vector.Int64},
		{Name: "s_r_id", Typ: vector.Int64},
		{Name: "s_qty", Typ: vector.Int64},
	})
	cat.AddTable(r)
	cat.AddTable(s)
	cat.AddFunc(&catalog.TableFunc{
		Name:   "nums",
		Schema: catalog.Schema{{Name: "n", Typ: vector.Int64}},
		Invoke: func(c *catalog.Catalog, args []vector.Datum) (*catalog.Result, error) {
			return &catalog.Result{Schema: catalog.Schema{{Name: "n", Typ: vector.Int64}}}, nil
		},
	})
	return cat
}

func TestResolveScan(t *testing.T) {
	cat := testCatalog()
	n := NewScan("r", "r_id", "r_val")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	sch := n.Schema()
	if len(sch) != 2 || sch[0].Name != "r_id" || sch[1].Typ != vector.Float64 {
		t.Fatalf("schema = %v", sch)
	}
}

func TestResolveScanAllColumns(t *testing.T) {
	cat := testCatalog()
	n := NewScan("r")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if len(n.Schema()) != 4 {
		t.Fatalf("schema = %v", n.Schema())
	}
}

func TestResolveScanErrors(t *testing.T) {
	cat := testCatalog()
	if err := NewScan("nope").Resolve(cat); err == nil {
		t.Fatal("unknown table should fail")
	}
	if err := NewScan("r", "bogus").Resolve(cat); err == nil {
		t.Fatal("unknown column should fail")
	}
}

func TestResolveSelectProject(t *testing.T) {
	cat := testCatalog()
	n := NewProject(
		NewSelect(NewScan("r", "r_id", "r_val"), expr.Gt(expr.C("r_val"), expr.Flt(1))),
		P(expr.Mul(expr.C("r_val"), expr.Flt(2)), "doubled"),
	)
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if n.Schema()[0].Name != "doubled" || n.Schema()[0].Typ != vector.Float64 {
		t.Fatalf("schema = %v", n.Schema())
	}
}

func TestResolveSelectNonBool(t *testing.T) {
	cat := testCatalog()
	n := NewSelect(NewScan("r", "r_id"), expr.C("r_id"))
	if err := n.Resolve(cat); err == nil {
		t.Fatal("non-bool predicate should fail")
	}
}

func TestResolveAggregate(t *testing.T) {
	cat := testCatalog()
	n := NewAggregate(NewScan("s"), []string{"s_r_id"},
		A(Sum, expr.C("s_qty"), "total"),
		A(Count, nil, "cnt"),
		A(Avg, expr.C("s_qty"), "avg_qty"),
	)
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	sch := n.Schema()
	if len(sch) != 4 {
		t.Fatalf("schema = %v", sch)
	}
	if sch[1].Name != "total" || sch[1].Typ != vector.Int64 {
		t.Fatalf("sum type = %v", sch[1])
	}
	if sch[2].Typ != vector.Int64 {
		t.Fatalf("count type = %v", sch[2])
	}
	if sch[3].Typ != vector.Float64 {
		t.Fatalf("avg type = %v", sch[3])
	}
}

func TestResolveAggregateErrors(t *testing.T) {
	cat := testCatalog()
	if err := NewAggregate(NewScan("s"), []string{"zzz"},
		A(Count, nil, "c")).Resolve(cat); err == nil {
		t.Fatal("bad group column should fail")
	}
	if err := NewAggregate(NewScan("s"), nil,
		A(Sum, nil, "x")).Resolve(cat); err == nil {
		t.Fatal("sum without argument should fail")
	}
}

func TestResolveJoin(t *testing.T) {
	cat := testCatalog()
	n := NewJoin(Inner, NewScan("r", "r_id", "r_val"), NewScan("s", "s_r_id", "s_qty"),
		[]string{"r_id"}, []string{"s_r_id"})
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if len(n.Schema()) != 4 {
		t.Fatalf("inner join schema = %v", n.Schema())
	}
	semi := NewJoin(LeftSemi, NewScan("r", "r_id", "r_val"), NewScan("s", "s_r_id"),
		[]string{"r_id"}, []string{"s_r_id"})
	if err := semi.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if len(semi.Schema()) != 2 {
		t.Fatalf("semi join schema = %v", semi.Schema())
	}
	outer := NewJoin(LeftOuter, NewScan("r", "r_id"), NewScan("s", "s_r_id"),
		[]string{"r_id"}, []string{"s_r_id"})
	if err := outer.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	sch := outer.Schema()
	if sch[len(sch)-1].Name != MatchCol {
		t.Fatalf("left outer schema = %v", sch)
	}
}

func TestResolveJoinErrors(t *testing.T) {
	cat := testCatalog()
	if err := NewJoin(Inner, NewScan("r", "r_id"), NewScan("s", "s_r_id"),
		[]string{"r_id", "r_val"}, []string{"s_r_id"}).Resolve(cat); err == nil {
		t.Fatal("key arity mismatch should fail")
	}
	if err := NewJoin(Inner, NewScan("r", "r_name"), NewScan("s", "s_r_id"),
		[]string{"r_name"}, []string{"s_r_id"}).Resolve(cat); err == nil {
		t.Fatal("string vs int key should fail")
	}
	if err := NewJoin(Inner, NewScan("r", "r_id"), NewScan("r", "r_id"),
		[]string{"r_id"}, []string{"r_id"}).Resolve(cat); err == nil {
		t.Fatal("duplicate output names should fail")
	}
}

func TestResolveTopNSortLimitUnion(t *testing.T) {
	cat := testCatalog()
	top := NewTopN(NewScan("r"), []SortKey{{Col: "r_val", Desc: true}}, 5)
	if err := top.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if err := NewTopN(NewScan("r"), []SortKey{{Col: "zzz"}}, 5).Resolve(cat); err == nil {
		t.Fatal("bad sort key should fail")
	}
	if err := NewTopN(NewScan("r"), []SortKey{{Col: "r_id"}}, 0).Resolve(cat); err == nil {
		t.Fatal("topn N=0 should fail")
	}
	if err := NewSort(NewScan("r"), SortKey{Col: "r_id"}).Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if err := NewLimit(NewScan("r"), 3).Resolve(cat); err != nil {
		t.Fatal(err)
	}
	u := NewUnion(NewScan("r", "r_id"), NewScan("s", "s_id"))
	if err := u.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	bad := NewUnion(NewScan("r", "r_id"), NewScan("r", "r_name"))
	if err := bad.Resolve(cat); err == nil {
		t.Fatal("union type mismatch should fail")
	}
}

func TestResolveTableFn(t *testing.T) {
	cat := testCatalog()
	n := NewTableFn("nums", vector.NewInt64Datum(3))
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if n.Schema()[0].Name != "n" {
		t.Fatalf("schema = %v", n.Schema())
	}
	if err := NewTableFn("nope").Resolve(cat); err == nil {
		t.Fatal("unknown function should fail")
	}
}

// graphText is n's identity text as the recycler graph keys it: output
// names left out.
func graphText(n *Node, rename func(string) string) string {
	return string(n.AppendCanon(nil, rename, false))
}

func TestParamStringExcludesOutputNames(t *testing.T) {
	cat := testCatalog()
	a := NewAggregate(NewScan("s"), []string{"s_r_id"}, A(Sum, expr.C("s_qty"), "alpha"))
	b := NewAggregate(NewScan("s"), []string{"s_r_id"}, A(Sum, expr.C("s_qty"), "beta"))
	if err := a.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if err := b.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	if graphText(a, expr.Ident) != graphText(b, expr.Ident) {
		t.Fatalf("same operation with different output names must have equal params:\n%s\n%s",
			graphText(a, expr.Ident), graphText(b, expr.Ident))
	}
	// The shape key and the memo append the names, so they tell a and b apart.
	if ka, kb := a.Key(expr.Ident, true, [2]uint64{}), b.Key(expr.Ident, true, [2]uint64{}); ka == kb {
		t.Fatalf("keys with names are equal: %v", ka)
	}
}

func TestParamStringDistinguishesPredicates(t *testing.T) {
	p1 := NewSelect(NewScan("r", "r_id"), expr.Lt(expr.C("r_id"), expr.Int(5)))
	p2 := NewSelect(NewScan("r", "r_id"), expr.Lt(expr.C("r_id"), expr.Int(6)))
	if graphText(p1, expr.Ident) == graphText(p2, expr.Ident) {
		t.Fatal("different constants must differ in params")
	}
	// A literal's type is part of its text: int64 5 and float64 5 differ.
	p3 := NewSelect(NewScan("r", "r_id"), expr.Lt(expr.C("r_id"), expr.Flt(5)))
	if graphText(p1, expr.Ident) == graphText(p3, expr.Ident) {
		t.Fatalf("int and float literals print alike: %s", graphText(p3, expr.Ident))
	}
}

func TestHashKeyIgnoresColumnNames(t *testing.T) {
	// The recycler graph keys a node by its identity text in the graph's column
	// namespace. Same shape, different column names: params differ under the
	// identity rename, but are equal once both names map to one graph name,
	// so column names enter the key only through the rename.
	p1 := NewSelect(NewScan("r", "r_id"), expr.Lt(expr.C("r_id"), expr.Int(5)))
	p2 := NewSelect(NewScan("s", "s_id"), expr.Lt(expr.C("s_id"), expr.Int(5)))
	if graphText(p1, expr.Ident) == graphText(p2, expr.Ident) {
		t.Fatal("params must still distinguish column names")
	}
	toGraph := func(string) string { return "g_id" }
	if graphText(p1, toGraph) != graphText(p2, toGraph) {
		t.Fatalf("params must agree in one namespace:\n%s\n%s",
			graphText(p1, toGraph), graphText(p2, toGraph))
	}
}

func TestAssignedNames(t *testing.T) {
	pr := NewProject(NewScan("r", "r_id"), P(expr.C("r_id"), "x"), P(expr.Int(1), "one"))
	got := pr.AssignedNames()
	if len(got) != 2 || got[0] != "x" || got[1] != "one" {
		t.Fatalf("AssignedNames = %v", got)
	}
	ag := NewAggregate(NewScan("s"), []string{"s_r_id"}, A(Count, nil, "c"))
	got = ag.AssignedNames()
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("AssignedNames = %v", got)
	}
	outer := NewJoin(LeftOuter, NewScan("r", "r_id"), NewScan("s", "s_r_id"),
		[]string{"r_id"}, []string{"s_r_id"})
	got = outer.AssignedNames()
	if len(got) != 1 || got[0] != MatchCol {
		t.Fatalf("AssignedNames = %v", got)
	}
	if NewScan("r", "r_id").AssignedNames() != nil {
		t.Fatal("scan assigns no names")
	}
}

func TestCloneDeep(t *testing.T) {
	cat := testCatalog()
	orig := NewProject(
		NewSelect(NewScan("r", "r_id", "r_val"), expr.Gt(expr.C("r_val"), expr.Flt(1))),
		P(expr.C("r_id"), "id"),
	)
	if err := orig.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	cl := orig.Clone()
	// Mutate the clone; original must be unaffected.
	cl.Children[0].Pred = expr.Lt(expr.C("r_val"), expr.Flt(0))
	cl.Projs[0].As = "renamed"
	if orig.Children[0].Describe() == cl.Children[0].Describe() {
		t.Fatal("clone shares predicate")
	}
	if orig.Projs[0].As != "id" {
		t.Fatal("clone shares projection slice")
	}
	if cl.Schema()[0].Name != "id" {
		t.Fatal("clone lost schema")
	}
}

func TestWalkCountString(t *testing.T) {
	n := NewSelect(NewScan("r", "r_id"), expr.Eq(expr.C("r_id"), expr.Int(1)))
	if n.Count() != 2 {
		t.Fatalf("Count = %d", n.Count())
	}
	var pre, post []Op
	n.Walk(func(x *Node) { pre = append(pre, x.Op) })
	n.WalkPost(func(x *Node) { post = append(post, x.Op) })
	if pre[0] != Select || post[0] != Scan {
		t.Fatalf("walk orders wrong: pre=%v post=%v", pre, post)
	}
	s := n.String()
	if !strings.Contains(s, "select") || !strings.Contains(s, "scan") {
		t.Fatalf("String = %q", s)
	}
}

func TestDecomposeAggs(t *testing.T) {
	aggs := []AggSpec{
		A(Sum, expr.C("x"), "s"),
		A(Count, nil, "c"),
		A(Min, expr.C("x"), "lo"),
		A(Max, expr.C("x"), "hi"),
	}
	lower, upper, needProject, ok := DecomposeAggs(aggs)
	if !ok || needProject {
		t.Fatalf("ok=%v needProject=%v", ok, needProject)
	}
	if len(lower) != 4 || len(upper) != 4 {
		t.Fatalf("lower=%d upper=%d", len(lower), len(upper))
	}
	if upper[1].Func != Sum { // count re-aggregates as sum
		t.Fatalf("count upper = %v", upper[1].Func)
	}
	if upper[2].Func != Min || upper[3].Func != Max {
		t.Fatal("min/max re-aggregate as themselves")
	}
}

func TestDecomposeAvg(t *testing.T) {
	aggs := []AggSpec{A(Avg, expr.C("x"), "m")}
	lower, upper, needProject, ok := DecomposeAggs(aggs)
	if !ok || !needProject {
		t.Fatalf("ok=%v needProject=%v", ok, needProject)
	}
	if len(lower) != 2 || len(upper) != 2 {
		t.Fatalf("avg should decompose into sum+count, got %d/%d", len(lower), len(upper))
	}
	proj := FinalProjection([]string{"g"}, aggs)
	if len(proj) != 2 || proj[0].As != "g" || proj[1].As != "m" {
		t.Fatalf("FinalProjection = %+v", proj)
	}
	if _, isDiv := proj[1].E.(*expr.Arith); !isDiv {
		t.Fatalf("avg projection should divide, got %T", proj[1].E)
	}
}

func TestOpAndJoinTypeStrings(t *testing.T) {
	if Scan.String() != "scan" || Aggregate.String() != "aggregate" {
		t.Fatal("Op.String broken")
	}
	if Inner.String() != "inner" || LeftAnti.String() != "anti" {
		t.Fatal("JoinType.String broken")
	}
	if Sum.String() != "sum" || Avg.String() != "avg" {
		t.Fatal("AggFunc.String broken")
	}
}
