package exec

// Parallel-executor contract tests: a morsel-parallel fragment must
// produce exactly what the serial pipeline produces — same rows, same
// order (float aggregates within re-association tolerance) — at every
// parallelism degree, including over delete bitmaps, and must tear down
// cleanly when the consumer stops early or cancels.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// parCatalog builds fact(id int, k int, v float, s string) with rows rows
// (and optionally a deleted stripe), plus dim(k int, name string) with 64
// keys — small enough that the join build side stays serial.
func parCatalog(rows int, deleteEvery int) *catalog.Catalog {
	cat := catalog.New()
	fact := catalog.NewTable("fact", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "k", Typ: vector.Int64},
		{Name: "v", Typ: vector.Float64},
		{Name: "s", Typ: vector.String},
	})
	rng := rand.New(rand.NewSource(7))
	w := fact.BeginWrite()
	ap := w.Appender()
	for i := 0; i < rows; i++ {
		ap.Int64(0, int64(i))
		ap.Int64(1, rng.Int63n(64))
		ap.Float64(2, rng.Float64()*100)
		ap.String(3, fmt.Sprintf("tag-%d", i%7))
		ap.FinishRow()
	}
	w.Commit()
	if deleteEvery > 0 {
		w := fact.BeginWrite()
		for i := 0; i < rows; i += deleteEvery {
			w.Delete(i)
		}
		w.Commit()
	}
	cat.AddTable(fact)

	dim := catalog.NewTable("dim", catalog.Schema{
		{Name: "dk", Typ: vector.Int64},
		{Name: "name", Typ: vector.String},
	})
	for k := 0; k < 64; k += 2 { // half the keys match
		dim.AppendRows([]vector.Datum{
			vector.NewInt64Datum(int64(k)),
			vector.NewStringDatum(fmt.Sprintf("key-%d", k)),
		})
	}
	cat.AddTable(dim)
	return cat
}

// runPlanPar resolves and executes a clone of q with the given parallelism
// and morsel size.
func runPlanPar(t *testing.T, cat *catalog.Catalog, q *plan.Node, par, morsel int) *catalog.Result {
	t.Helper()
	n := q.Clone()
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	ctx.Parallelism = par
	ctx.MorselRows = morsel
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

// flatten materializes a result as one row list.
func flatten(res *catalog.Result) [][]vector.Datum {
	var out [][]vector.Datum
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
	return out
}

// sameRows asserts got matches want row-for-row in order, with float
// tolerance for parallel aggregation re-association.
func sameRows(t *testing.T, label string, want, got *catalog.Result) {
	t.Helper()
	sameRowLists(t, label, flatten(want), flatten(got))
}

func sameRowLists(t *testing.T, label string, w, g [][]vector.Datum) {
	t.Helper()
	if len(w) != len(g) {
		t.Fatalf("%s: row count: want %d, got %d", label, len(w), len(g))
	}
	for i := range w {
		for c := range w[i] {
			a, b := w[i][c], g[i][c]
			if a.Typ == vector.Float64 && b.Typ == vector.Float64 {
				d := math.Abs(a.F64 - b.F64)
				if d > 1e-6 && d > 1e-9*math.Abs(a.F64) {
					t.Fatalf("%s: row %d col %d: %v vs %v", label, i, c, a.F64, b.F64)
				}
				continue
			}
			if !a.Equal(b) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, c, a, b)
			}
		}
	}
}

// parPlans is the fragment-shape matrix: filter, project chains, joins on
// the probe side, grouped/scalar aggregation above each.
func parPlans() map[string]*plan.Node {
	filtered := func() *plan.Node {
		return plan.NewSelect(plan.NewScan("fact", "id", "k", "v", "s"),
			expr.Lt(expr.C("k"), expr.Int(40)))
	}
	join := func() *plan.Node {
		return plan.NewJoin(plan.Inner, filtered(), plan.NewScan("dim", "dk", "name"),
			[]string{"k"}, []string{"dk"})
	}
	return map[string]*plan.Node{
		"filter": filtered(),
		"project": plan.NewProject(filtered(),
			plan.P(expr.C("id"), "id"),
			plan.P(expr.Mul(expr.C("v"), expr.Flt(2)), "v2")),
		"join":     join(),
		"semijoin": plan.NewJoin(plan.LeftSemi, filtered(), plan.NewScan("dim", "dk", "name"), []string{"k"}, []string{"dk"}),
		"antijoin": plan.NewJoin(plan.LeftAnti, filtered(), plan.NewScan("dim", "dk", "name"), []string{"k"}, []string{"dk"}),
		"outerjoin": plan.NewJoin(plan.LeftOuter, filtered(), plan.NewScan("dim", "dk", "name"),
			[]string{"k"}, []string{"dk"}),
		"agg": plan.NewAggregate(filtered(), []string{"s"},
			plan.A(plan.Count, nil, "n"),
			plan.A(plan.Sum, expr.C("v"), "sv"),
			plan.A(plan.Min, expr.C("id"), "mn"),
			plan.A(plan.Max, expr.C("v"), "mx"),
			plan.A(plan.Avg, expr.C("v"), "av")),
		"agg-scalar": plan.NewAggregate(filtered(), nil,
			plan.A(plan.Count, nil, "n"),
			plan.A(plan.Sum, expr.C("v"), "sv")),
		"agg-over-join": plan.NewAggregate(join(), []string{"name"},
			plan.A(plan.Count, nil, "n"),
			plan.A(plan.Sum, expr.C("v"), "sv")),
		"topn-over-exchange": plan.NewTopN(filtered(),
			[]plan.SortKey{{Col: "id", Desc: true}}, 100),
		"limit-over-exchange": plan.NewLimit(filtered(), 1234),
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, del := range []int{0, 37} {
		cat := parCatalog(40000, del)
		for name, q := range parPlans() {
			serial := runPlanPar(t, cat, q, 1, 1024)
			for _, par := range []int{2, 4, 8} {
				got := runPlanPar(t, cat, q, par, 1024)
				sameRows(t, fmt.Sprintf("%s/del=%d/par=%d", name, del, par), serial, got)
			}
		}
	}
}

// TestParallelBatchSequenceMatchesSerial pins the stronger form of the
// property the recycler relies on: a result stored above a fragment has the
// same batch layout, not just the same rows, whatever the worker count —
// every pipe flushes a probe's held rows at the same morsel boundaries.
func TestParallelBatchSequenceMatchesSerial(t *testing.T) {
	cat := parCatalog(50000, 0)
	lens := func(res *catalog.Result) []int {
		out := make([]int, len(res.Batches))
		for i, b := range res.Batches {
			out[i] = b.Len()
		}
		return out
	}
	for name, q := range parPlans() {
		for _, morsel := range []int{1024, 2048, 4096} {
			serial := runPlanPar(t, cat, q, 1, morsel)
			for _, par := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("%s/morsel=%d/par=%d", name, morsel, par)
				got := runPlanPar(t, cat, q, par, morsel)
				if w, g := lens(serial), lens(got); fmt.Sprint(w) != fmt.Sprint(g) {
					t.Fatalf("%s: batch sizes differ from serial: %d batches %v, want %d batches %v",
						label, len(g), g, len(w), w)
				}
				sameRows(t, label, serial, got)
			}
		}
	}
}

// TestParallelStoreSequenceMatchesSerial: a speculative store above each
// fragment shape sees the same progress, buffered bytes and rows counted for
// every node of its subtree — so the same cost, priced from those rows — at
// every batch whatever the worker count, so its admission decisions — and
// the recycler's — cannot depend on how many workers ran the subtree.
func TestParallelStoreSequenceMatchesSerial(t *testing.T) {
	cat := parCatalog(50000, 37)
	type sample struct {
		progress float64
		rows     string // every subtree node's count, in walk order
		cost     plan.Work
		bytes    int64
	}
	run := func(q *plan.Node, par int) []sample {
		n := q.Clone()
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		stats := make(map[*plan.Node]NodeStats)
		var got []sample
		see := func(progress float64, bytes int64) {
			var rows []int64
			n.Walk(func(x *plan.Node) { rows = append(rows, stats[x].RowsOut()) })
			got = append(got, sample{progress, fmt.Sprint(rows), pricedWork(stats, n), bytes})
		}
		spec := &StoreSpec{Speculative: true,
			OnBatch: func(progress float64, bytes int64) bool {
				see(progress, bytes)
				return true
			},
			OnComplete: func(_ []*vector.Batch, _, bytes int64) { see(1, bytes) },
		}
		ctx := NewCtx(cat)
		ctx.Parallelism, ctx.MorselRows = par, 2048
		op, err := Build(ctx, n, Decorations{n: {Store: spec}}, stats)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Drain(ctx, op); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for name, q := range parPlans() {
		serial := run(q, 1)
		if len(serial) < 2 || serial[len(serial)-1].cost <= 0 {
			t.Fatalf("%s: vacuous serial sequence %v", name, serial)
		}
		for _, par := range []int{2, 4, 8} {
			if got := run(q, par); fmt.Sprint(got) != fmt.Sprint(serial) {
				t.Fatalf("%s/par=%d: store saw\n%v\nwant (serial)\n%v", name, par, got, serial)
			}
		}
	}
}

// pricedWork prices the undecorated subtree n from the rows stats counted,
// as the recycler does: each node's own weights over the rows it and its
// children emitted.
func pricedWork(stats map[*plan.Node]NodeStats, n *plan.Node) plan.Work {
	var w plan.Work
	in := make([]int64, len(n.Children))
	for i, c := range n.Children {
		w += pricedWork(stats, c)
		in[i] = stats[c].RowsOut()
	}
	return w + n.SelfWork(stats[n].RowsOut(), in...)
}

// TestFragmentRootChosenByObservables pins how a fragment picks its root:
// from the rows to scan, the kind of source and the statement's budget — a
// parallel root for a splittable morsel source (guarding against silent
// fallback to one worker), one worker for everything else.
func TestFragmentRootChosenByObservables(t *testing.T) {
	cat := parCatalog(40000, 0)
	mk := func(q *plan.Node, par, morsel int) Operator {
		n := q.Clone()
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		ctx := NewCtx(cat)
		ctx.Parallelism = par
		ctx.MorselRows = morsel
		op, err := Build(ctx, n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	workers := func(op Operator) int {
		switch x := op.(type) {
		case *Exchange:
			return len(x.workers)
		case *AggOp:
			return len(x.workers)
		case *FusedPipeline:
			return 1
		}
		t.Fatalf("unexpected fragment root %T", op)
		return 0
	}
	filter := plan.NewSelect(plan.NewScan("fact", "id"), expr.Lt(expr.C("id"), expr.Int(10)))
	agg := plan.NewAggregate(filter.Clone(), []string{"id"}, plan.A(plan.Count, nil, "n"))
	overSort := plan.NewSelect(plan.NewSort(plan.NewScan("fact", "id"), plan.SortKey{Col: "id"}),
		expr.Lt(expr.C("id"), expr.Int(10)))
	for _, c := range []struct {
		name        string
		q           *plan.Node
		par, morsel int
		want        int
	}{
		{"filter/large/par4", filter, 4, 1024, 4},
		{"filter/large/par1", filter, 1, 1024, 1},
		{"filter/under-two-morsels/par4", filter, 4, 30000, 1},
		{"filter/three-morsels/par4", filter, 4, 16000, 3},
		{"agg/large/par4", agg, 4, 1024, 4},
		{"agg/large/par1", agg, 1, 1024, 1},
		{"filter-over-sort/par4", overSort, 4, 1024, 1}, // a pull source never splits
	} {
		if got := workers(mk(c.q, c.par, c.morsel)); got != c.want {
			t.Errorf("%s: %d workers, want %d", c.name, got, c.want)
		}
	}
	if _, ok := mk(filter, 4, 1024).(*Exchange); !ok {
		t.Fatalf("expected *Exchange for a large filter at parallelism 4")
	}
	if _, ok := mk(filter, 1, 1024).(*FusedPipeline); !ok {
		t.Fatalf("expected *FusedPipeline for one worker")
	}
	// A bare scan gains nothing from a merge copy or a push loop.
	if _, ok := mk(plan.NewScan("fact", "id"), 4, 1024).(*TableScan); !ok {
		t.Fatalf("expected *TableScan for a bare scan")
	}
}

// TestFragmentBuildPartitionsFollowWorkers: a shared join build splits its
// chain directory for the workers that probe it, not for the statement's
// budget — a serial probe over a pull source builds one partition even at
// Parallelism 8.
func TestFragmentBuildPartitionsFollowWorkers(t *testing.T) {
	cat := parCatalog(40000, 0)
	for _, c := range []struct {
		name  string
		probe *plan.Node
		want  int
	}{
		{"pull-sourced", plan.NewSort(plan.NewScan("fact", "id", "k"), plan.SortKey{Col: "id"}), 1},
		{"four-workers", plan.NewScan("fact", "id", "k"), 4},
	} {
		n := plan.NewJoin(plan.Inner, c.probe, plan.NewScan("dim", "dk", "name"), []string{"k"}, []string{"dk"})
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		ctx := NewCtx(cat)
		ctx.Parallelism, ctx.MorselRows = 8, 10000 // four morsels
		op, err := Build(ctx, n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var root *fragRoot
		switch x := op.(type) {
		case *FusedPipeline:
			root = x.fragRoot
		case *Exchange:
			root = x.fragRoot
		default:
			t.Fatalf("%s: unexpected root %T", c.name, op)
		}
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := op.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
		if got := len(root.builds[0].parts); got != c.want {
			t.Errorf("%s: %d build partitions, want %d", c.name, got, c.want)
		}
		if err := op.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelEarlyClose closes a parallel stream after one batch: workers
// must drain and shut down without leaking or deadlocking.
func TestParallelEarlyClose(t *testing.T) {
	cat := parCatalog(40000, 0)
	n := parPlans()["join"].Clone()
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	ctx.Parallelism = 4
	ctx.MorselRows = 1024
	op, err := Build(ctx, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(ctx); err != nil { // Close is idempotent
		t.Fatal(err)
	}
}

// TestParallelCancellation cancels mid-stream; the error must surface and
// teardown must complete.
func TestParallelCancellation(t *testing.T) {
	cat := parCatalog(40000, 0)
	for _, name := range []string{"filter", "agg"} {
		n := parPlans()[name].Clone()
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(context.Background())
		ctx := NewCtx(cat)
		ctx.Context = cctx
		ctx.Parallelism = 4
		ctx.MorselRows = 1024
		op, err := Build(ctx, n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		var lastErr error
		for i := 0; i < 1000; i++ {
			b, err := op.Next(ctx)
			if err != nil {
				lastErr = err
				break
			}
			if b == nil {
				break
			}
		}
		if lastErr == nil {
			t.Fatalf("%s: canceled query finished without error", name)
		}
		op.Close(ctx)
	}
}

// TestMorselSourceWindow exercises claim-order and window blocking.
func TestMorselSourceWindow(t *testing.T) {
	snap := &catalog.Snapshot{Rows: 100}
	s := newMorselSource(snap, 0, 100, 10, 2)
	if s.count() != 10 {
		t.Fatalf("count = %d, want 10", s.count())
	}
	m0, _ := s.claim()
	m1, _ := s.claim()
	if m0 != 0 || m1 != 1 {
		t.Fatalf("claims out of order: %d, %d", m0, m1)
	}
	claimed := make(chan int, 1)
	go func() {
		m, _ := s.claim() // blocks: window 2, merge cursor at 0
		claimed <- m
	}()
	select {
	case m := <-claimed:
		t.Fatalf("claim %d succeeded past the window", m)
	default:
	}
	s.advance(0)
	if m := <-claimed; m != 2 {
		t.Fatalf("unblocked claim = %d, want 2", m)
	}
	lo, hi := s.bounds(9)
	if lo != 90 || hi != 100 {
		t.Fatalf("bounds(9) = [%d,%d)", lo, hi)
	}
	s.stop()
	if _, ok := s.claim(); ok {
		t.Fatal("claim succeeded after stop")
	}
}
