package exec

// Fused push-loop contract tests: steady-state allocation freedom of the
// serial drivers, and exact per-node spine costs and row counts, for a
// morsel-scan leaf and a pull (CacheScan) leaf alike.

import (
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// cachedReplay executes resolved plan node n and wraps the result as the
// recycler would hand it back: a reuse decoration replaying owned batches.
func cachedReplay(t *testing.T, cat *catalog.Catalog, n *plan.Node) *ReuseSpec {
	t.Helper()
	ctx := NewCtx(cat)
	op, err := Build(ctx, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(n.Schema()))
	for i := range idx {
		idx[i] = i
	}
	return &ReuseSpec{Batches: res.Batches, OutIdx: idx}
}

// fusedCatalog wraps the shared bench table in a catalog for plan-driven
// builds of fused pipelines.
func fusedCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddTable(benchTable(benchRows))
	return cat
}

// fusedBenchPlan is scan -> filter -> project over the bench table: the
// canonical fused spine (one conjunct pair, one selection-aware projection).
func fusedBenchPlan() *plan.Node {
	return plan.NewProject(
		plan.NewSelect(plan.NewScan(benchName(benchRows), "id", "k", "v", "s"),
			expr.AndOf(
				expr.Lt(expr.C("k"), expr.Int(48)),
				expr.Lt(expr.C("id"), expr.Int(benchRows-1)))),
		plan.P(expr.C("id"), "id"),
		plan.P(expr.Mul(expr.C("v"), expr.Flt(2)), "v2"),
	)
}

func buildFused(t *testing.T, cat *catalog.Catalog, n *plan.Node, par int, opmap map[*plan.Node]NodeStats) (*Ctx, Operator) {
	t.Helper()
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	ctx.Parallelism = par
	op, err := Build(ctx, n, nil, opmap)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, op
}

// TestFusedPipelineNextZeroAlloc holds the serial driver to the steady-state
// contract: once stage scratch is pooled and capacities have grown, a
// FusedPipeline.Next — one scan batch pushed through filter conjuncts and a
// projection into the sink slot — must not touch the heap.
func TestFusedPipelineNextZeroAlloc(t *testing.T) {
	n := fusedBenchPlan()
	ctx, op := buildFused(t, fusedCatalog(), n, 1, nil)
	if _, ok := op.(*FusedPipeline); !ok {
		t.Fatalf("op = %T, want *FusedPipeline", op)
	}
	assertZeroAllocs(t, ctx, op, 8, 100)
}

// TestFusedAggStepZeroAlloc drives the fused aggregation loop (scan ->
// filter -> absorb) over a low-cardinality group column: after the group
// table stops growing, the per-batch absorb path must be allocation-free.
// AggOp.Next runs the whole input inside one call, so the assertion
// measures the drive loop directly rather than through assertZeroAllocs.
func TestFusedAggStepZeroAlloc(t *testing.T) {
	n := plan.NewAggregate(
		plan.NewSelect(plan.NewScan(benchName(benchRows), "id", "k", "v", "s"),
			expr.Lt(expr.C("id"), expr.Int(benchRows/2))),
		[]string{"k"},
		plan.A(plan.Count, nil, "n"),
		plan.A(plan.Sum, expr.C("v"), "sv"))
	ctx, op := buildFused(t, fusedCatalog(), n, 1, nil)
	fa, ok := op.(*AggOp)
	if !ok || len(fa.workers) != 1 {
		t.Fatalf("op = %T, want a one-worker *AggOp", op)
	}
	if err := fa.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer fa.Close(ctx)
	pipe := fa.workers[0].pipe
	// Warm: claim morsels and absorb until capacities are grown.
	for i := 0; i < 8; i++ {
		if done, err := pipe.step(ctx); err != nil || done {
			t.Fatalf("warmup ended early (done=%v err=%v)", done, err)
		}
	}
	var stepErr error
	avg := testing.AllocsPerRun(100, func() {
		done, err := pipe.step(ctx)
		if err != nil {
			stepErr = err
			return
		}
		if done {
			t.Fatal("stream ended during the measured window; grow the input")
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if avg != 0 {
		t.Fatalf("steady-state fused agg step allocates %.1f objects/call, want 0", avg)
	}
}

// TestFusedSpineCostsExact pins the rows counted for every spine node — all
// the recycler prices a fragment from — for the pipe's own morsel scan and
// for a pull child replaying cached batches (where spine index 0 is the
// child operator's own stats entry) alike. Row counts come from a
// row-at-a-time oracle, so they are exact, and so are the costs priced from
// them (internal/rewrite pins the pricing).
func TestFusedSpineCostsExact(t *testing.T) {
	cat := fusedCatalog()
	// Oracle row counts: the predicate of fusedBenchPlan, row at a time.
	tab, _ := cat.Table(benchName(benchRows))
	snap := tab.Snapshot()
	var pass int64
	for r := 0; r < snap.Rows; r++ {
		if snap.Col(1).I64[r] < 48 && snap.Col(0).I64[r] < benchRows-1 {
			pass++
		}
	}
	rows := int64(snap.Rows)
	wantRows := []int64{rows, pass, pass}

	for _, leaf := range []string{"morsel-scan", "cache-scan"} {
		n := fusedBenchPlan()
		if err := n.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		spine := plan.SpineNodes(n, nil)
		var dec Decorations
		if leaf == "cache-scan" {
			dec = Decorations{spine[0]: {Reuse: cachedReplay(t, cat, spine[0])}}
		}

		ctx := NewCtx(cat)
		stats := make(map[*plan.Node]NodeStats)
		op, err := Build(ctx, n, dec, stats)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Drain(ctx, op); err != nil {
			t.Fatal(err)
		}
		if _, isReplay := stats[spine[0]].(*CacheScan); isReplay != (leaf == "cache-scan") {
			t.Fatalf("%s: spine leaf built as %T", leaf, stats[spine[0]])
		}
		if stats[n] != op {
			t.Fatalf("%s: fragment root's stats entry is %T, not its operator", leaf, stats[n])
		}
		for i, pn := range spine {
			f := stats[pn]
			if f == nil {
				t.Fatalf("%s: no stats entry for spine node %v", leaf, pn.Op)
			}
			if got := f.RowsOut(); got != wantRows[i] {
				t.Fatalf("%s: spine node %v emitted %d rows, want %d", leaf, pn.Op, got, wantRows[i])
			}
		}
	}
}
