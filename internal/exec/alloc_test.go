package exec

// Steady-state allocation contract: once an operator pipeline is warmed up
// (scratch batches drawn from the pool, capacities grown), Next must not
// touch the heap. testing.AllocsPerRun holds the pooled paths to exactly
// zero; regressions here are what the batch pool and the selection-vector
// design exist to prevent.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// assertZeroAllocs pulls `warm` batches from op, then asserts the next
// `runs` Next calls allocate nothing.
func assertZeroAllocs(t *testing.T, ctx *Ctx, op Operator, warm, runs int) {
	t.Helper()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close(ctx)
	for i := 0; i < warm; i++ {
		if _, err := op.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	avg := testing.AllocsPerRun(runs, func() {
		var b *vector.Batch
		b, err = op.Next(ctx)
		if err != nil {
			return
		}
		if b == nil {
			t.Fatal("stream ended during the measured window; grow the input")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("steady-state Next allocates %.1f objects/call, want 0", avg)
	}
}

func TestFilterNextZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	scan, _ := benchScan(tab)
	// Selective predicate with an arithmetic comparison, exercising the
	// expression scratch reuse as well as the selection build.
	pred := expr.Lt(expr.C("id"), expr.Int(benchRows/2))
	assertZeroAllocs(t, NewCtx(catalog.New()), pipeFilter(t, scan, pred, nil), 4, 100)
}

func TestJoinProbeNextZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	left, lschema := benchScan(tab)
	right, rschema := benchScan(tab)
	out := append(append(catalog.Schema{}, lschema...), rschema...)
	// Self-join on the unique id: every probe row matches exactly once,
	// so each Next emits a full output batch from the probe loop.
	j := pipeJoin(plan.Inner, left, right, []int{0}, []int{0}, out, nil)
	assertZeroAllocs(t, NewCtx(catalog.New()), j, 8, 100)
}

func TestHashAggEmitNextZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	scan, _ := benchScan(tab)
	// One group per row: emission spans hundreds of batches.
	h := pipeAgg(scan, []int{0}, []AggExpr{
		{Func: plan.Count, Typ: vector.Int64},
	}, catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "n", Typ: vector.Int64},
	})
	assertZeroAllocs(t, NewCtx(catalog.New()), h, 4, 100)
}

// TestSortEmitNextZeroAlloc covers the full sort and a bounded one; the
// bounded sort emits its 100 rows one row per batch, so that its emission
// spans enough batches to measure.
func TestSortEmitNextZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	for _, tc := range []struct {
		name           string
		n, vec         int
		warm, measured int
	}{
		{"full-256Ki-rows", 0, DefaultVectorSize, 4, 100},
		{"topn-100-of-256Ki-rows", 100, 1, 1, 90},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scan, _ := benchScan(tab)
			s := NewSort(scan, []plan.SortKey{{Col: "v"}}, tc.n)
			ctx := NewCtx(catalog.New())
			ctx.VectorSize = tc.vec
			assertZeroAllocs(t, ctx, s, tc.warm, tc.measured)
		})
	}
}

func TestProjectNextZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	scan, _ := benchScan(tab)
	exprs := []expr.Expr{expr.C("id"), expr.Mul(expr.C("v"), expr.Flt(2))}
	outSchema := catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "v2", Typ: vector.Float64},
	}
	p := pipeProject(t, scan, exprs, outSchema)
	assertZeroAllocs(t, NewCtx(catalog.New()), p, 4, 100)
}

// The selective pipeline scan -> filter -> project must stay allocation-free
// too: the projection gathers through the selection vector.
func TestFilterProjectPipelineZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	scan, _ := benchScan(tab)
	pred := expr.Lt(expr.C("k"), expr.Int(32)) // ~50% selectivity
	f := pipeFilter(t, scan, pred, nil)
	exprs := []expr.Expr{expr.C("id"), expr.C("s")}
	outSchema := catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "s", Typ: vector.String},
	}
	p := pipeProject(t, f, exprs, outSchema)
	assertZeroAllocs(t, NewCtx(catalog.New()), p, 4, 100)
}

// TestMorselPipelineZeroAlloc holds the one driver to the same contract over
// a morsel source: a worker's steady state (step pushing each scan batch
// through a selective filter into a sink, ending morsels through the hook
// and claiming the next) must not touch the heap. Work a root's hook does
// per morsel (slot publication, transfer copies) is pooled and amortized
// but not covered by this assertion.
func TestMorselPipelineZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	snap := tab.Snapshot()
	ctx := NewCtx(catalog.New())
	const morsels = 128
	src := newMorselSource(snap, 0, snap.Rows, snap.Rows/morsels, 0)
	pred := expr.Lt(expr.C("id"), expr.Int(benchRows/2))
	if _, err := pred.Bind(tab.Schema); err != nil {
		t.Fatal(err)
	}
	p := &fusedPipe{schema: tab.Schema, src: src, scan: rangeScan{cols: []int{0, 1, 2, 3}}}
	p.addFilter(pred, nil)
	p.sink = func(*vector.Batch) error { return nil }
	p.endMorsel = src.advance
	if err := p.open(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.close(ctx)
	for i := 0; i < 8; i++ {
		if done, err := p.step(ctx); err != nil || done {
			t.Fatalf("warmup ended early (done=%v err=%v)", done, err)
		}
	}
	var err error
	avg := testing.AllocsPerRun(100, func() {
		done, e := p.step(ctx)
		if e != nil {
			err = e
		} else if done {
			t.Fatal("stream ended during the measured window; grow the input")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("worker steady-state step allocates %.1f objects/call, want 0", avg)
	}
	if p.morsel < 10 {
		t.Fatalf("measured window stayed inside morsel %d; it must cross morsel ends", p.morsel)
	}
}

// TestBlockingStateReuseZeroAlloc holds the blocking operators to the
// contract across queries: a join build, a group directory and the arenas
// of a full and a bounded sort grow through the pool and go back to it at
// Close, so a second identical Open→drain→Close on one Ctx rebuilds that
// state in the memory the first released. Each must allocate under 64 KiB
// (the fresh operator tree, the sort's comparator closure, small per-query
// slices), against tens of megabytes when blocking state grows by append
// and is dropped at Close.
//
// The GC is off while measuring, since a collection empties the pools. One
// P runs the test: sync.Pool keeps one entry per P in a slot only that P
// sees, so a goroutine that moved between Ps would miss arrays its first
// run returned on the other one.
func TestBlockingStateReuseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race")
	}
	groups, big := benchTable(1<<16), benchTable(benchRows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		rows int64
		op   func() Operator
	}{
		{"agg-64Ki-groups-two-keys", 1 << 16, func() Operator {
			scan, _ := benchScan(groups)
			return pipeAgg(scan, []int{0, 1}, []AggExpr{{Func: plan.Count, Typ: vector.Int64}},
				catalog.Schema{
					{Name: "id", Typ: vector.Int64},
					{Name: "k", Typ: vector.Int64},
					{Name: "n", Typ: vector.Int64},
				})
		}},
		// A self-join on the unique id: a Ctx snapshots tables by name,
		// so both sides read one table.
		{"join-256Ki-row-build", benchRows, func() Operator {
			left, lschema := benchScan(big)
			right, rschema := benchScan(big)
			out := append(append(catalog.Schema{}, lschema...), rschema...)
			return pipeJoin(plan.Inner, left, right, []int{0}, []int{0}, out, nil)
		}},
		{"sort-256Ki-rows", benchRows, func() Operator {
			scan, _ := benchScan(big)
			return NewSort(scan, []plan.SortKey{{Col: "v"}}, 0)
		}},
		{"topn-100-of-256Ki-rows", 100, func() Operator {
			scan, _ := benchScan(big)
			return NewSort(scan, []plan.SortKey{{Col: "v"}}, 100)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := NewCtx(catalog.New())
			if got := drain(t, ctx, tc.op()); got != tc.rows {
				t.Fatalf("first run: %d rows, want %d", got, tc.rows)
			}
			op := tc.op()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rows := drain(t, ctx, op)
			runtime.ReadMemStats(&after)
			if rows != tc.rows {
				t.Fatalf("second run: %d rows, want %d", rows, tc.rows)
			}
			got, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
			if got >= 64<<10 {
				t.Fatalf("second Open→drain→Close allocated %d bytes in %d objects, want < 64 KiB", got, objs)
			}
			t.Logf("second Open→drain→Close: %d bytes in %d objects", got, objs)
		})
	}
}
