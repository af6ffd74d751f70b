package exec

// Selection-vector semantics: every consumer of a filtered batch — chained
// filters, projections, joins (both sides, all join types), aggregation,
// sort, top-N, limit, store materialization — must see exactly the selected
// rows. These tests force selective batches through each operator and
// compare against row-level expectations, with a tiny vector size to
// exercise mid-chain batch boundaries and resumption.

import (
	"fmt"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// selTable builds a small table: n rows of (id int64, grp int64 mod g,
// v float64, s string).
func selTable(t *testing.T, n, g int) *catalog.Table {
	t.Helper()
	tab := catalog.NewTable("t", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "grp", Typ: vector.Int64},
		{Name: "v", Typ: vector.Float64},
		{Name: "s", Typ: vector.String},
	})
	w := tab.BeginWrite()
	app := w.Appender()
	for i := 0; i < n; i++ {
		app.Int64(0, int64(i))
		app.Int64(1, int64(i%g))
		app.Float64(2, float64(i)/2)
		app.String(3, fmt.Sprintf("s%d", i%7))
		app.FinishRow()
	}
	w.Commit()
	return tab
}

func scanAll(tab *catalog.Table) Operator {
	cols := make([]int, len(tab.Schema))
	for i := range cols {
		cols[i] = i
	}
	return NewTableScan(tab, cols, tab.Schema)
}

// evenFilter keeps rows with even id.
func evenFilter(t *testing.T, child Operator) Operator {
	t.Helper()
	pred := expr.Eq(expr.BinBy(expr.C("id"), 2), expr.BinBy(expr.Add(expr.C("id"), expr.Int(0)), 2))
	// Simpler: id % 2 == 0 via bin: bin(id,2)*2 == id
	pred = expr.Eq(expr.Mul(expr.BinBy(expr.C("id"), 2), expr.Int(2)), expr.C("id"))
	return pipeFilter(t, child, pred)
}

// ltFilter keeps rows with id < cutoff.
func ltFilter(t *testing.T, child Operator, cutoff int64) Operator {
	t.Helper()
	return pipeFilter(t, child, expr.Lt(expr.C("id"), expr.Int(cutoff)))
}

// runRows drains op and returns all rows as datum slices.
func runRows(t *testing.T, ctx *Ctx, op Operator) [][]vector.Datum {
	t.Helper()
	res, err := Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]vector.Datum
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
	return rows
}

func TestSelectionChainedFilters(t *testing.T) {
	tab := selTable(t, 1000, 10)
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 64
	// even ids, then id < 100 -> ids 0,2,...,98.
	op := ltFilter(t, evenFilter(t, scanAll(tab)), 100)
	rows := runRows(t, ctx, op)
	if len(rows) != 50 {
		t.Fatalf("got %d rows, want 50", len(rows))
	}
	for i, r := range rows {
		if r[0].I64 != int64(2*i) {
			t.Fatalf("row %d: id=%d, want %d", i, r[0].I64, 2*i)
		}
	}
}

func TestSelectionProjectGathersStrings(t *testing.T) {
	tab := selTable(t, 500, 10)
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 64
	f := evenFilter(t, scanAll(tab))
	exprs := []expr.Expr{expr.C("s"), expr.Add(expr.C("id"), expr.Int(1))}
	p := pipeProject(t, f, exprs, catalog.Schema{
		{Name: "s", Typ: vector.String},
		{Name: "id1", Typ: vector.Int64},
	})
	rows := runRows(t, ctx, p)
	if len(rows) != 250 {
		t.Fatalf("got %d rows, want 250", len(rows))
	}
	for i, r := range rows {
		id := int64(2 * i)
		if r[1].I64 != id+1 {
			t.Fatalf("row %d: id+1=%d, want %d", i, r[1].I64, id+1)
		}
		if want := fmt.Sprintf("s%d", id%7); r[0].Str != want {
			t.Fatalf("row %d: s=%q, want %q", i, r[0].Str, want)
		}
	}
}

func TestSelectionJoinBothSides(t *testing.T) {
	tab := selTable(t, 400, 10)
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 32
	for _, jt := range []plan.JoinType{plan.Inner, plan.LeftSemi, plan.LeftAnti, plan.LeftOuter} {
		t.Run(fmt.Sprintf("%v", jt), func(t *testing.T) {
			// Probe: even ids < 200 (ids 0,2,..,198). Build: ids < 50.
			left := ltFilter(t, evenFilter(t, scanAll(tab)), 200)
			right := ltFilter(t, scanAll(tab), 50)
			schema := append(append(catalog.Schema{}, tab.Schema...), tab.Schema...)
			switch jt {
			case plan.LeftSemi, plan.LeftAnti:
				schema = append(catalog.Schema{}, tab.Schema...)
			case plan.LeftOuter:
				schema = append(schema, catalog.Column{Name: plan.MatchCol, Typ: vector.Int64})
			}
			j := pipeJoin(jt, left, right, []int{0}, []int{0}, schema)
			rows := runRows(t, ctx, j)
			switch jt {
			case plan.Inner, plan.LeftSemi:
				// Even ids below 50: 0,2,...,48.
				if len(rows) != 25 {
					t.Fatalf("got %d rows, want 25", len(rows))
				}
			case plan.LeftAnti:
				if len(rows) != 75 {
					t.Fatalf("got %d rows, want 75", len(rows))
				}
			case plan.LeftOuter:
				if len(rows) != 100 {
					t.Fatalf("got %d rows, want 100", len(rows))
				}
				matched := 0
				for _, r := range rows {
					m := r[len(r)-1].I64
					if m == 1 {
						matched++
						if r[0].I64 != r[4].I64 {
							t.Fatalf("outer matched row keys differ: %v", r)
						}
					} else if r[4].I64 != 0 {
						t.Fatalf("unmatched outer row not zero-filled: %v", r)
					}
				}
				if matched != 25 {
					t.Fatalf("outer join matched %d, want 25", matched)
				}
			}
		})
	}
}

func TestSelectionJoinDuplicateChainsAcrossBatches(t *testing.T) {
	// Build side has 8 rows per key; vector size 4 forces every probe
	// row's match chain to exceed the vector size (one oversized output
	// batch per probe batch).
	tab := selTable(t, 80, 10) // grp = id%10: 8 rows per group
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 4
	left := ltFilter(t, scanAll(tab), 10) // probe ids 0..9, key grp=id
	right := scanAll(tab)
	schema := append(append(catalog.Schema{}, tab.Schema...), tab.Schema...)
	j := pipeJoin(plan.Inner, left, right, []int{0}, []int{1}, schema)
	rows := runRows(t, ctx, j)
	if len(rows) != 80 {
		t.Fatalf("got %d rows, want 80 (10 probe x 8 matches)", len(rows))
	}
	for _, r := range rows {
		if r[0].I64 != r[5].I64 {
			t.Fatalf("join key mismatch: probe id %d vs build grp %d", r[0].I64, r[5].I64)
		}
	}
}

func TestSelectionAggregation(t *testing.T) {
	tab := selTable(t, 1000, 10)
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 64
	f := evenFilter(t, scanAll(tab))
	// Bind the agg arg against the child schema (builders normally do it).
	sumArg := expr.C("id")
	if _, err := sumArg.Bind(tab.Schema); err != nil {
		t.Fatal(err)
	}
	h := pipeAgg(f, []int{1}, []AggExpr{
		{Func: plan.Count, Typ: vector.Int64},
		{Func: plan.Sum, Arg: sumArg, Typ: vector.Int64},
	}, catalog.Schema{
		{Name: "grp", Typ: vector.Int64},
		{Name: "n", Typ: vector.Int64},
		{Name: "sum_id", Typ: vector.Int64},
	})
	rows := runRows(t, ctx, h)
	// Even ids have grp = id%10 in {0,2,4,6,8}: 5 groups of 100 rows.
	if len(rows) != 5 {
		t.Fatalf("got %d groups, want 5", len(rows))
	}
	for _, r := range rows {
		grp := r[0].I64
		if grp%2 != 0 {
			t.Fatalf("odd group %d leaked through the filter", grp)
		}
		if r[1].I64 != 100 {
			t.Fatalf("group %d count=%d, want 100", grp, r[1].I64)
		}
		// ids grp, grp+10, ..., grp+990 -> 100*grp + 10*(0+..+99).
		want := 100*grp + 10*4950
		if r[2].I64 != want {
			t.Fatalf("group %d sum=%d, want %d", grp, r[2].I64, want)
		}
	}
}

func TestSelectionSortAndTopN(t *testing.T) {
	tab := selTable(t, 300, 10)
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 16
	s := NewSort(evenFilter(t, scanAll(tab)), []plan.SortKey{{Col: "id", Desc: true}})
	rows := runRows(t, ctx, s)
	if len(rows) != 150 {
		t.Fatalf("sort: got %d rows, want 150", len(rows))
	}
	for i, r := range rows {
		if want := int64(298 - 2*i); r[0].I64 != want {
			t.Fatalf("sort row %d: id=%d, want %d", i, r[0].I64, want)
		}
	}
	tn := NewTopN(evenFilter(t, scanAll(tab)), []plan.SortKey{{Col: "id", Desc: true}}, 5)
	rows = runRows(t, ctx, tn)
	if len(rows) != 5 {
		t.Fatalf("topN: got %d rows, want 5", len(rows))
	}
	for i, r := range rows {
		if want := int64(298 - 2*i); r[0].I64 != want {
			t.Fatalf("topN row %d: id=%d, want %d", i, r[0].I64, want)
		}
	}
}

func TestSelectionLimitPartialBatch(t *testing.T) {
	tab := selTable(t, 300, 10)
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 64
	l := NewLimit(evenFilter(t, scanAll(tab)), 21)
	rows := runRows(t, ctx, l)
	if len(rows) != 21 {
		t.Fatalf("got %d rows, want 21", len(rows))
	}
	for i, r := range rows {
		if r[0].I64 != int64(2*i) {
			t.Fatalf("row %d: id=%d, want %d", i, r[0].I64, 2*i)
		}
	}
}

func TestSelectionStoreMaterializesDense(t *testing.T) {
	tab := selTable(t, 200, 10)
	ctx := NewCtx(catalog.New())
	ctx.VectorSize = 32
	var stored []*vector.Batch
	var storedRows, storedBytes int64
	st := NewStore(evenFilter(t, scanAll(tab)), StoreSpec{
		OnComplete: func(batches []*vector.Batch, rows, bytes int64) {
			stored = batches
			storedRows = rows
			storedBytes = bytes
		},
	})
	if _, err := Drain(ctx, st); err != nil {
		t.Fatal(err)
	}
	if storedRows != 100 {
		t.Fatalf("stored %d rows, want 100", storedRows)
	}
	var total, bytes int64
	for _, b := range stored {
		if b.Sel != nil {
			t.Fatal("materialized batch still carries a selection; the recycler must own dense copies")
		}
		total += int64(b.Len())
		bytes += b.Bytes()
		for i := 0; i < b.Len(); i++ {
			if b.Row(i)[0].I64%2 != 0 {
				t.Fatalf("odd id %d in materialized batch", b.Row(i)[0].I64)
			}
		}
	}
	if total != 100 {
		t.Fatalf("materialized %d rows, want 100", total)
	}
	// The store's byte accounting must describe what was actually kept:
	// the compacted clone, not the aliased input.
	if bytes != storedBytes {
		t.Fatalf("accounted %d bytes, clones hold %d", storedBytes, bytes)
	}
}
