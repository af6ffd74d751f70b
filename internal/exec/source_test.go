package exec

// Fragments over sources other than a base-table scan: cached replays,
// Store-wrapped subtrees, table functions, blocking operators, and delta
// runs. Every expectation comes from a naive in-test oracle — row-at-a-time
// expr.Eval, a nested-loop join, a map group-by — that shares no code with
// the executor's stages.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// batchSource replays the caller's batches verbatim — the very structs, the
// way a CacheScan hands out cached vectors shared by every reader — and
// counts how often it was pulled.
type batchSource struct {
	base
	batches []*vector.Batch
	idx     int
	nexts   int
}

func (s *batchSource) Open(*Ctx) error { s.idx = 0; return nil }

func (s *batchSource) Next(*Ctx) (*vector.Batch, error) {
	s.nexts++
	if s.idx >= len(s.batches) {
		return nil, nil
	}
	s.idx++
	return s.batches[s.idx-1], nil
}
func (s *batchSource) Close(*Ctx) error  { return nil }
func (s *batchSource) Progress() float64 { return 0 }

// rowPasses is the filter oracle: pred evaluated over a one-row batch.
func rowPasses(t *testing.T, pred expr.Expr, row []vector.Datum, types []vector.Type) bool {
	t.Helper()
	one := vector.NewBatch(types, 1)
	for c, d := range row {
		one.Vecs[c].AppendDatum(d)
	}
	flags := vector.New(vector.Bool, 1)
	if err := pred.Eval(one, flags); err != nil {
		t.Fatal(err)
	}
	return flags.B[0]
}

// boundClone returns a copy of pred bound to schema, for oracle use.
func boundClone(t *testing.T, pred expr.Expr, schema catalog.Schema) expr.Expr {
	t.Helper()
	p := pred.Clone()
	if _, err := p.Bind(schema); err != nil {
		t.Fatal(err)
	}
	return p
}

// tableRows returns the live rows of the named table's columns, in order.
func tableRows(t *testing.T, cat *catalog.Catalog, table string, cols ...string) [][]vector.Datum {
	t.Helper()
	return flatten(runPlan(t, cat, plan.NewScan(table, cols...)))
}

// buildRun resolves n, builds it with dec (decorations are keyed by node, so
// the caller passes a function of the resolved tree) and runs it.
func buildRun(t *testing.T, ctx *Ctx, n *plan.Node, dec Decorations) *catalog.Result {
	t.Helper()
	op, err := Build(ctx, n, dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func seqFunc() *catalog.TableFunc {
	schema := catalog.Schema{{Name: "n", Typ: vector.Int64}}
	return &catalog.TableFunc{
		Name: "seq", Schema: schema,
		Invoke: func(c *catalog.Catalog, args []vector.Datum) (*catalog.Result, error) {
			res := &catalog.Result{Schema: schema}
			for lo := int64(0); lo < args[0].I64; lo += 50 { // several batches
				b := vector.NewBatch(schema.Types(), 50)
				for i := lo; i < min(lo+50, args[0].I64); i++ {
					b.Vecs[0].AppendInt64(i)
				}
				res.Batches = append(res.Batches, b)
			}
			return res, nil
		},
	}
}

// TestPullSourceNeverWrittenThrough: a filter refines its selection in
// place, and a cached batch is shared by every reader — so a pipe over a
// pull child must work on its own header and its own copy of the selection.
func TestPullSourceNeverWrittenThrough(t *testing.T) {
	cat := parCatalog(5000, 0)
	pred := expr.AndOf(expr.Lt(expr.C("k"), expr.Int(40)), expr.Ge(expr.C("id"), expr.Int(100)))
	mk := func() (*plan.Node, *plan.Node) {
		scan := plan.NewScan("fact", "id", "k", "v", "s")
		n := plan.NewJoin(plan.Inner, plan.NewSelect(scan, pred.Clone()),
			plan.NewScan("dim", "dk", "name"), []string{"k"}, []string{"dk"})
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return n, scan
	}
	_, scan0 := mk()
	cached := cachedReplay(t, cat, scan0)
	pristine := make([]*vector.Batch, len(cached.Batches))
	for i, b := range cached.Batches {
		if b.Sel != nil {
			t.Fatal("cached batches must start dense")
		}
		pristine[i] = b.Clone()
	}

	// Oracle: row-at-a-time filter, nested-loop join.
	factSchema := scan0.Schema()
	oraclePred := boundClone(t, pred, factSchema)
	dim := tableRows(t, cat, "dim", "dk", "name")
	var want [][]vector.Datum
	for _, f := range tableRows(t, cat, "fact", "id", "k", "v", "s") {
		if !rowPasses(t, oraclePred, f, factSchema.Types()) {
			continue
		}
		for _, d := range dim {
			if f[1].I64 == d[0].I64 {
				want = append(want, append(append([]vector.Datum{}, f...), d...))
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("oracle join is empty; the test is vacuous")
	}

	for run := 0; run < 2; run++ {
		n, scan := mk()
		res := buildRun(t, NewCtx(cat), n, Decorations{scan: {Reuse: cached}})
		sameRowLists(t, fmt.Sprintf("run %d", run), want, flatten(res))
		for i, b := range cached.Batches {
			if b.Sel != nil {
				t.Fatalf("run %d: cached batch %d acquired a selection", run, i)
			}
			sameRows(t, fmt.Sprintf("run %d cached batch %d", run, i),
				&catalog.Result{Batches: []*vector.Batch{pristine[i]}},
				&catalog.Result{Batches: []*vector.Batch{b}})
		}
	}

	// A child batch that already carries a selection: the filter must
	// compact a copy, leaving the child's selection slice as it was.
	rows := runPlan(t, cat, scan0.Clone())
	src := &batchSource{base: base{schema: factSchema}}
	var sels [][]int32
	for _, b := range rows.Batches {
		sel := make([]int32, 0, b.Len())
		for r := 0; r < b.Len(); r += 2 {
			sel = append(sel, int32(r))
		}
		src.batches = append(src.batches, &vector.Batch{Vecs: b.Vecs, Sel: sel})
		sels = append(sels, append([]int32{}, sel...))
	}
	got, err := Run(NewCtx(cat), pipeFilter(t, src, pred.Clone(), nil))
	if err != nil {
		t.Fatal(err)
	}
	var wantSel [][]vector.Datum
	for _, b := range src.batches {
		for i := 0; i < b.Len(); i++ {
			if r := b.Row(i); rowPasses(t, oraclePred, r, factSchema.Types()) {
				wantSel = append(wantSel, r)
			}
		}
	}
	sameRowLists(t, "filter over selective child", wantSel, flatten(got))
	for i, b := range src.batches {
		if len(b.Sel) != len(sels[i]) {
			t.Fatalf("child batch %d selection resliced: %d -> %d", i, len(sels[i]), len(b.Sel))
		}
		for j := range b.Sel {
			if b.Sel[j] != sels[i][j] {
				t.Fatalf("child batch %d selection overwritten at %d", i, j)
			}
		}
	}
}

// TestFragmentsOverPullSources runs one fragment per non-scan source kind
// against its oracle.
func TestFragmentsOverPullSources(t *testing.T) {
	cat := parCatalog(5000, 37)
	cat.AddFunc(seqFunc())
	factCols := []string{"id", "k", "v", "s"}
	fact := tableRows(t, cat, "fact", factCols...)
	dim := tableRows(t, cat, "dim", "dk", "name")

	t.Run("filter-over-store", func(t *testing.T) {
		innerPred := expr.Lt(expr.C("k"), expr.Int(40))
		outerPred := expr.Gt(expr.C("v"), expr.Flt(50))
		inner := plan.NewSelect(plan.NewScan("fact", factCols...), innerPred)
		n := plan.NewSelect(inner, outerPred)
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		var stored int64
		dec := Decorations{inner: {Store: &StoreSpec{
			OnComplete: func(_ []*vector.Batch, rows, _ int64) { stored = rows },
		}}}
		ctx := NewCtx(cat)
		ctx.Record = new(StmtRecord)
		res := buildRun(t, ctx, n, dec)
		if got := ctx.Record.FusedFragments.Load(); got != 2 {
			t.Fatalf("built %d fragments, want 2 (one below the store, one above)", got)
		}
		schema := inner.Schema()
		ip, op := boundClone(t, innerPred, schema), boundClone(t, outerPred, schema)
		var want [][]vector.Datum
		var wantStored int64
		for _, f := range fact {
			if !rowPasses(t, ip, f, schema.Types()) {
				continue
			}
			wantStored++
			if rowPasses(t, op, f, schema.Types()) {
				want = append(want, f)
			}
		}
		sameRowLists(t, "filter over store", want, flatten(res))
		if stored != wantStored || stored == int64(len(want)) {
			t.Fatalf("store saw %d rows, want the inner filter's %d (outer keeps %d)", stored, wantStored, len(want))
		}
	})

	t.Run("probe-over-tablefn", func(t *testing.T) {
		for _, jt := range []plan.JoinType{plan.Inner, plan.LeftAnti, plan.LeftOuter} {
			n := plan.NewJoin(jt, plan.NewTableFn("seq", vector.NewInt64Datum(130)),
				plan.NewScan("dim", "dk", "name"), []string{"n"}, []string{"dk"})
			if err := n.Resolve(cat); err != nil {
				t.Fatal(err)
			}
			ctx := NewCtx(cat)
			ctx.Record = new(StmtRecord)
			res := buildRun(t, ctx, n, nil)
			if ctx.Record.FusedFragments.Load() == 0 {
				t.Fatal("a table-function-leaf join did not build a fragment")
			}
			var want [][]vector.Datum
			for i := int64(0); i < 130; i++ {
				probe := vector.NewInt64Datum(i)
				matched := false
				for _, d := range dim {
					if d[0].I64 != i {
						continue
					}
					matched = true
					switch jt {
					case plan.Inner:
						want = append(want, []vector.Datum{probe, d[0], d[1]})
					case plan.LeftOuter:
						want = append(want, []vector.Datum{probe, d[0], d[1], vector.NewInt64Datum(1)})
					}
				}
				if !matched && jt == plan.LeftAnti {
					want = append(want, []vector.Datum{probe})
				}
				if !matched && jt == plan.LeftOuter {
					want = append(want, []vector.Datum{probe, vector.NewInt64Datum(0),
						vector.NewStringDatum(""), vector.NewInt64Datum(0)})
				}
			}
			sameRowLists(t, fmt.Sprintf("%v over table function", jt), want, flatten(res))
		}
	})

	t.Run("aggregate-over-sort", func(t *testing.T) {
		n := plan.NewAggregate(
			plan.NewSort(plan.NewScan("fact", factCols...), plan.SortKey{Col: "v", Desc: true}),
			[]string{"s"},
			plan.A(plan.Count, nil, "n"), plan.A(plan.Sum, expr.C("v"), "sv"), plan.A(plan.Min, expr.C("id"), "mn"))
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		res := buildRun(t, NewCtx(cat), n, nil)
		type group struct {
			n, mn int64
			sv    float64
		}
		groups := map[string]*group{}
		for _, f := range fact {
			g := groups[f[3].Str]
			if g == nil {
				g = &group{mn: math.MaxInt64}
				groups[f[3].Str] = g
			}
			g.n++
			g.sv += f[2].F64
			g.mn = min(g.mn, f[0].I64)
		}
		got := flatten(res)
		if len(got) != len(groups) {
			t.Fatalf("%d groups, oracle has %d", len(got), len(groups))
		}
		for _, r := range got {
			g := groups[r[0].Str]
			if g == nil || r[1].I64 != g.n || r[3].I64 != g.mn || math.Abs(r[2].F64-g.sv) > 1e-6 {
				t.Fatalf("group %q = %v, oracle has %+v", r[0].Str, r, g)
			}
		}
		// Discovery order is the sorted stream's: first group is that of
		// the largest v.
		top := append([][]vector.Datum{}, fact...)
		sort.SliceStable(top, func(i, j int) bool { return top[i][2].F64 > top[j][2].F64 })
		if got[0][0].Str != top[0][3].Str {
			t.Fatalf("first group %q, want %q (sorted-stream discovery order)", got[0][0].Str, top[0][3].Str)
		}
	})

	t.Run("limit-stops-the-source", func(t *testing.T) {
		schema := catalog.Schema{{Name: "id", Typ: vector.Int64}}
		src := &batchSource{base: base{schema: schema}}
		for b := 0; b < 100; b++ {
			batch := vector.NewBatch(schema.Types(), 100)
			for i := 0; i < 100; i++ {
				batch.Vecs[0].AppendInt64(int64(b*100 + i))
			}
			src.batches = append(src.batches, batch)
		}
		even := expr.Eq(expr.Mul(expr.BinBy(expr.C("id"), 2), expr.Int(2)), expr.C("id"))
		res, err := Run(NewCtx(cat), NewLimit(pipeFilter(t, src, even, nil), 120))
		if err != nil {
			t.Fatal(err)
		}
		got := collectI64(res, 0)
		if len(got) != 120 {
			t.Fatalf("limit emitted %d rows, want 120", len(got))
		}
		for i, id := range got {
			if id != int64(2*i) {
				t.Fatalf("row %d = %d, want %d", i, id, 2*i)
			}
		}
		// 50 survivors per batch: three batches cover the limit; the
		// push loop may have pulled at most one more.
		if src.nexts > 4 {
			t.Fatalf("source pulled %d times for a limit three batches satisfy", src.nexts)
		}
	})
}

// TestDeltaRunEqualsRecomputeMinusPrefix: with ScanFrom set, a fragment reads
// only rows [ScanFrom, watermark) of that table — at any worker count, and
// clamped when the offset is at or past the watermark.
func TestDeltaRunEqualsRecomputeMinusPrefix(t *testing.T) {
	const rows = 20000
	cat := parCatalog(rows, 37)
	pred := expr.Lt(expr.C("k"), expr.Int(40))
	plans := map[string]*plan.Node{
		"filter": plan.NewSelect(plan.NewScan("fact", "id", "k", "v", "s"), pred),
		"project": plan.NewProject(plan.NewSelect(plan.NewScan("fact", "id", "k", "v", "s"), pred.Clone()),
			plan.P(expr.C("id"), "id"), plan.P(expr.Mul(expr.C("v"), expr.Flt(2)), "v2")),
		"join": plan.NewJoin(plan.Inner, plan.NewSelect(plan.NewScan("fact", "id", "k", "v", "s"), pred.Clone()),
			plan.NewScan("dim", "dk", "name"), []string{"k"}, []string{"dk"}),
	}
	count := plan.NewAggregate(plan.NewSelect(plan.NewScan("fact", "id", "k"), pred.Clone()), nil,
		plan.A(plan.Count, nil, "n"))
	run := func(q *plan.Node, from, par int) *catalog.Result {
		n := q.Clone()
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		ctx := NewCtx(cat)
		ctx.Parallelism, ctx.MorselRows = par, 1024
		if from >= 0 {
			ctx.ScanFrom = map[string]int{"fact": from}
		}
		return buildRun(t, ctx, n, nil)
	}
	for _, from := range []int{7777, rows, rows + 500} {
		for _, par := range []int{1, 4} {
			for name, q := range plans {
				// id is the row position, and every plan keeps it in column 0.
				var want [][]vector.Datum
				for _, r := range flatten(run(q, -1, 1)) {
					if r[0].I64 >= int64(from) {
						want = append(want, r)
					}
				}
				got := flatten(run(q, from, par))
				sameRowLists(t, fmt.Sprintf("%s/from=%d/par=%d", name, from, par), want, got)
				if from == 7777 && len(got) == 0 {
					t.Fatalf("%s: mid-table delta is empty; the test is vacuous", name)
				}
			}
			var want int64
			for _, r := range flatten(run(plans["filter"], -1, 1)) {
				if r[0].I64 >= int64(from) {
					want++
				}
			}
			if got := collectI64(run(count, from, par), 0); len(got) != 1 || got[0] != want {
				t.Fatalf("count/from=%d/par=%d = %v, want %d", from, par, got, want)
			}
		}
	}
}

// TestFusedFragmentsBuiltForPullLeaves: plans whose spine ends in a cached
// replay or a table function build fragments like any other.
func TestFusedFragmentsBuiltForPullLeaves(t *testing.T) {
	cat := parCatalog(3000, 0)
	cat.AddFunc(seqFunc())
	scan := plan.NewScan("fact", "id", "k")
	overCache := plan.NewSelect(scan, expr.Lt(expr.C("k"), expr.Int(8)))
	overFn := plan.NewSelect(plan.NewTableFn("seq", vector.NewInt64Datum(10)), expr.Lt(expr.C("n"), expr.Int(5)))
	for _, n := range []*plan.Node{overCache, overFn} {
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]struct {
		n    *plan.Node
		dec  Decorations
		rows int
	}{
		"cache-scan-leaf": {overCache, Decorations{scan: {Reuse: cachedReplay(t, cat, scan)}}, -1},
		"tablefn-leaf":    {overFn, nil, 5},
	} {
		ctx := NewCtx(cat)
		ctx.Record = new(StmtRecord)
		op, err := Build(ctx, c.n, c.dec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.Record.FusedFragments.Load(); got != 1 {
			t.Fatalf("%s: fragment counter moved by %d, want 1", name, got)
		}
		fp, ok := op.(*FusedPipeline)
		if !ok || fp.pipe.child == nil {
			t.Fatalf("%s: root %T is not a pull-sourced FusedPipeline", name, op)
		}
		res, err := Run(NewCtx(cat), op)
		if err != nil {
			t.Fatal(err)
		}
		if c.rows >= 0 && res.Rows() != c.rows {
			t.Fatalf("%s: %d rows, want %d", name, res.Rows(), c.rows)
		}
	}
}

// TestPullSourcedPipelineZeroAlloc ports the steady-state contract to a
// plan-built pipe over a cached replay: filter and probe over a CacheScan
// must not touch the heap per Next.
func TestPullSourcedPipelineZeroAlloc(t *testing.T) {
	cat := fusedCatalog()
	scan := plan.NewScan(benchName(benchRows), "id", "k", "v", "s")
	dim := plan.NewProject(
		plan.NewSelect(plan.NewScan(benchName(benchRows), "id", "s"), expr.Lt(expr.C("id"), expr.Int(64))),
		plan.P(expr.C("id"), "dk"), plan.P(expr.C("s"), "ds"))
	n := plan.NewJoin(plan.Inner,
		plan.NewSelect(scan, expr.Gt(expr.Mul(expr.C("v"), expr.Flt(2)), expr.Flt(100))),
		dim, []string{"k"}, []string{"dk"})
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	op, err := Build(ctx, n, Decorations{scan: {Reuse: cachedReplay(t, cat, scan)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp, ok := op.(*FusedPipeline); !ok || fp.pipe.child == nil {
		t.Fatalf("root %T is not a pull-sourced FusedPipeline", op)
	}
	assertZeroAllocs(t, ctx, op, 8, 100)
}

// TestProbeOutputPacksAcrossInputBatches: a selective probe holds its matches
// until it has a vector's worth, through one probe stage or two chained ones,
// and the end of each morsel flushes what is left — no row lost, no sliver
// batches beyond one per morsel, at any worker count.
func TestProbeOutputPacksAcrossInputBatches(t *testing.T) {
	const vsz = 64
	cat := parCatalog(40000, 0)
	oneKey := func(alias string, k int64) *plan.Node {
		return plan.NewProject(
			plan.NewSelect(plan.NewScan("dim", "dk", "name"), expr.Eq(expr.C("dk"), expr.Int(k))),
			plan.P(expr.C("dk"), alias), plan.P(expr.C("name"), alias+"_name"))
	}
	fact := func() *plan.Node { return plan.NewScan("fact", "id", "k", "v", "s") }
	plans := map[string]*plan.Node{
		"one-probe": plan.NewJoin(plan.Inner, fact(), oneKey("a", 6), []string{"k"}, []string{"a"}),
		"two-probes": plan.NewJoin(plan.Inner,
			plan.NewJoin(plan.Inner, fact(), oneKey("a", 6), []string{"k"}, []string{"a"}),
			oneKey("b", 6), []string{"k"}, []string{"b"}),
	}
	var want int
	for _, f := range tableRows(t, cat, "fact", "id", "k") {
		if f[1].I64 == 6 {
			want++
		}
	}
	if want < 4*vsz {
		t.Fatalf("only %d matching rows; the test needs several vectors' worth", want)
	}
	for name, q := range plans {
		for _, par := range []int{1, 4} {
			n := q.Clone()
			if err := n.Resolve(cat); err != nil {
				t.Fatal(err)
			}
			ctx := NewCtx(cat)
			ctx.VectorSize, ctx.Parallelism, ctx.MorselRows = vsz, par, 64*vsz
			res := buildRun(t, ctx, n, nil)
			label := fmt.Sprintf("%s/par=%d", name, par)
			if res.Rows() != want {
				t.Fatalf("%s: %d rows, want %d", label, res.Rows(), want)
			}
			ids := collectI64(res, 0)
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Fatalf("%s: row %d out of scan order", label, i)
				}
			}
			// ~1 match per 64-row input batch: unpacked, that is one batch
			// per match. Packed, only a morsel's last batch falls short.
			morsels := (40000 + ctx.MorselRows - 1) / ctx.MorselRows
			short := 0
			for _, b := range res.Batches {
				if b.Len() < vsz {
					short++
				}
			}
			if short > morsels {
				t.Fatalf("%s: %d of %d batches hold under %d rows, want at most one per morsel (%d)",
					label, short, len(res.Batches), vsz, morsels)
			}
		}
	}
}
