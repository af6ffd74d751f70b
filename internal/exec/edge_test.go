package exec

import (
	"testing"
	"testing/quick"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// emptyCatalog returns a catalog with an empty table.
func emptyCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddTable(catalog.NewTable("e", catalog.Schema{
		{Name: "x", Typ: vector.Int64},
		{Name: "s", Typ: vector.String},
	}))
	return cat
}

func TestOperatorsOverEmptyTable(t *testing.T) {
	cat := emptyCatalog()
	plans := []*plan.Node{
		plan.NewScan("e"),
		plan.NewSelect(plan.NewScan("e"), expr.Gt(expr.C("x"), expr.Int(0))),
		plan.NewProject(plan.NewScan("e"), plan.P(expr.C("x"), "y")),
		plan.NewAggregate(plan.NewScan("e"), []string{"s"}, plan.A(plan.Count, nil, "c")),
		plan.NewSort(plan.NewScan("e"), plan.SortKey{Col: "x"}),
		plan.NewTopN(plan.NewScan("e"), []plan.SortKey{{Col: "x"}}, 5),
		plan.NewLimit(plan.NewScan("e"), 10),
		plan.NewUnion(plan.NewScan("e", "x"), plan.NewScan("e", "x")),
		plan.NewJoin(plan.Inner, plan.NewScan("e"), plan.NewScan("e", "x").Clone(),
			nil, nil),
	}
	// The self-join needs distinct column names; patch it.
	plans[8] = plan.NewJoin(plan.Inner,
		plan.NewScan("e", "x"),
		plan.NewProject(plan.NewScan("e", "x"), plan.P(expr.C("x"), "x2")),
		[]string{"x"}, []string{"x2"})
	for i, p := range plans {
		if err := p.Resolve(cat); err != nil {
			t.Fatalf("plan %d resolve: %v", i, err)
		}
		ctx := NewCtx(cat)
		op, err := Build(ctx, p, nil, nil)
		if err != nil {
			t.Fatalf("plan %d build: %v", i, err)
		}
		res, err := Run(ctx, op)
		if err != nil {
			t.Fatalf("plan %d run: %v", i, err)
		}
		if res.Rows() != 0 {
			t.Fatalf("plan %d: %d rows over empty input", i, res.Rows())
		}
	}
}

func TestJoinEmptyBuildSideStillDrainsProbe(t *testing.T) {
	cat := testCatalog()
	n := plan.NewJoin(plan.Inner,
		plan.NewScan("emp", "id", "dept"),
		plan.NewSelect(plan.NewScan("dept", "name"),
			expr.Eq(expr.C("name"), expr.Str("nonexistent"))),
		[]string{"dept"}, []string{"name"})
	res := runPlan(t, cat, n)
	if res.Rows() != 0 {
		t.Fatalf("rows = %d", res.Rows())
	}
	// Anti join against an empty right side keeps everything.
	anti := plan.NewJoin(plan.LeftAnti,
		plan.NewScan("emp", "id", "dept"),
		plan.NewSelect(plan.NewScan("dept", "name"),
			expr.Eq(expr.C("name"), expr.Str("nonexistent"))),
		[]string{"dept"}, []string{"name"})
	res = runPlan(t, cat, anti)
	if res.Rows() != 1000 {
		t.Fatalf("anti rows = %d", res.Rows())
	}
}

func TestCrossJoinViaEmptyKeys(t *testing.T) {
	cat := testCatalog()
	n := plan.NewJoin(plan.Inner,
		plan.NewScan("dept", "name"),
		plan.NewProject(plan.NewScan("dept", "region"), plan.P(expr.C("region"), "r2")),
		nil, nil)
	res := runPlan(t, cat, n)
	if res.Rows() != 16 {
		t.Fatalf("cross join rows = %d, want 16", res.Rows())
	}
}

func TestTopNArenaCompaction(t *testing.T) {
	// A descending input stresses the bounded sort: every row orders
	// before the bound and enters the arena, so cut follows cut.
	cat := catalog.New()
	tb := catalog.NewTable("big", catalog.Schema{{Name: "v", Typ: vector.Int64}})
	w := tb.BeginWrite()
	ap := w.Appender()
	for i := 0; i < 50000; i++ {
		ap.Int64(0, int64(50000-i))
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(tb)
	n := plan.NewTopN(plan.NewScan("big"), []plan.SortKey{{Col: "v"}}, 3)
	res := runPlan(t, cat, n)
	got := collectI64(res, 0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("top3 = %v", got)
	}
}

func TestGroupCountExceedsVectorSize(t *testing.T) {
	cat := catalog.New()
	tb := catalog.NewTable("g", catalog.Schema{{Name: "k", Typ: vector.Int64}})
	w := tb.BeginWrite()
	ap := w.Appender()
	for i := 0; i < 5000; i++ {
		ap.Int64(0, int64(i)) // 5000 distinct groups
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(tb)
	n := plan.NewAggregate(plan.NewScan("g"), []string{"k"}, plan.A(plan.Count, nil, "c"))
	res := runPlan(t, cat, n)
	if res.Rows() != 5000 {
		t.Fatalf("groups = %d", res.Rows())
	}
	// Emitted across multiple batches.
	if len(res.Batches) < 2 {
		t.Fatalf("expected multiple output batches, got %d", len(res.Batches))
	}
}

func TestKeyEncodingDistinguishesTypes(t *testing.T) {
	// int64(1) must not collide with the string "\x01" or bool true.
	iv := vector.New(vector.Int64, 1)
	iv.AppendInt64(1)
	sv := vector.New(vector.String, 1)
	sv.AppendString("\x01")
	bv := vector.New(vector.Bool, 1)
	bv.AppendBool(true)
	ki := string(appendKey(nil, iv, 0, false))
	ks := string(appendKey(nil, sv, 0, false))
	kb := string(appendKey(nil, bv, 0, false))
	if ki == ks || ki == kb || ks == kb {
		t.Fatalf("key collision: %q %q %q", ki, ks, kb)
	}
}

func TestKeyEncodingCoercesNumerics(t *testing.T) {
	iv := vector.New(vector.Int64, 1)
	iv.AppendInt64(7)
	fv := vector.New(vector.Float64, 1)
	fv.AppendFloat64(7.0)
	ki := string(appendKey(nil, iv, 0, true))
	kf := string(appendKey(nil, fv, 0, true))
	if ki != kf {
		t.Fatal("coerced int and float keys must match")
	}
	// Without coercion a float keeps its IEEE encoding: 7.0 is a float
	// key, distinct from the int64 key 7.
	if string(appendKey(nil, fv, 0, false)) == ki {
		t.Fatal("uncoerced float key must differ from int key")
	}
	// Non-integral floats never canonicalize onto ints, coerced or not.
	fv2 := vector.New(vector.Float64, 1)
	fv2.AppendFloat64(7.5)
	if string(appendKey(nil, fv2, 0, true)) == ki {
		t.Fatal("non-integral float key must differ from int key")
	}
}

// Property: multi-column string keys are injective for printable inputs
// (the length prefix prevents concatenation ambiguity).
func TestKeyEncodingInjectiveProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 string) bool {
		mk := func(x, y string) string {
			v1 := vector.New(vector.String, 1)
			v1.AppendString(x)
			v2 := vector.New(vector.String, 1)
			v2.AppendString(y)
			k := appendKey(nil, v1, 0, false)
			k = appendKey(k, v2, 0, false)
			return string(k)
		}
		same := a1 == b1 && a2 == b2
		return (mk(a1, a2) == mk(b1, b2)) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: filter then count equals counting matching rows directly.
func TestFilterCountProperty(t *testing.T) {
	cat := testCatalog()
	f := func(threshold uint16) bool {
		th := int64(threshold) % 1000
		n := plan.NewAggregate(
			plan.NewSelect(plan.NewScan("emp", "id"),
				expr.Lt(expr.C("id"), expr.Int(th))),
			nil, plan.A(plan.Count, nil, "c"))
		if err := n.Resolve(cat); err != nil {
			return false
		}
		ctx := NewCtx(cat)
		op, err := Build(ctx, n, nil, nil)
		if err != nil {
			return false
		}
		res, err := Run(ctx, op)
		if err != nil {
			return false
		}
		return res.Batches[0].Vecs[0].I64[0] == th
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: sort output is a permutation (count preserved) and ordered.
func TestSortProperty(t *testing.T) {
	cat := testCatalog()
	n := plan.NewSort(plan.NewScan("emp", "salary", "id"),
		plan.SortKey{Col: "salary"}, plan.SortKey{Col: "id", Desc: true})
	res := runPlan(t, cat, n)
	if res.Rows() != 1000 {
		t.Fatalf("rows = %d", res.Rows())
	}
	var prevS float64 = -1
	var prevID int64 = 1 << 62
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			s, id := b.Vecs[0].F64[i], b.Vecs[1].I64[i]
			if s < prevS {
				t.Fatal("primary key order violated")
			}
			if s == prevS && id > prevID {
				t.Fatal("secondary key order violated")
			}
			if s != prevS {
				prevID = 1 << 62
			}
			prevS, prevID = s, id
		}
	}
}

func TestUnionPreservesAllRows(t *testing.T) {
	cat := testCatalog()
	n := plan.NewAggregate(
		plan.NewUnion(plan.NewScan("emp", "id"), plan.NewScan("emp", "id")),
		nil, plan.A(plan.Count, nil, "c"))
	res := runPlan(t, cat, n)
	if res.Batches[0].Vecs[0].I64[0] != 2000 {
		t.Fatalf("union count = %d", res.Batches[0].Vecs[0].I64[0])
	}
}

func TestScalarAggOverJoin(t *testing.T) {
	cat := testCatalog()
	// sum over a cross join: 1000 emp rows x 1 filtered dept row.
	n := plan.NewAggregate(
		plan.NewJoin(plan.Inner,
			plan.NewScan("emp", "id", "dept"),
			plan.NewSelect(plan.NewScan("dept", "name"),
				expr.Eq(expr.C("name"), expr.Str("eng"))),
			nil, nil),
		nil, plan.A(plan.Count, nil, "c"))
	res := runPlan(t, cat, n)
	if res.Batches[0].Vecs[0].I64[0] != 1000 {
		t.Fatalf("count = %d", res.Batches[0].Vecs[0].I64[0])
	}
}
