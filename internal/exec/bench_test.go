package exec

// Per-operator microbenchmarks for the execution hot paths: selective
// filtering, hash-join build+probe, grouped hash aggregation, full sort
// (BenchmarkSort) and bounded sort (BenchmarkTopN).
// Each iteration runs one operator pipeline over a pre-generated table, so
// ns/op tracks per-tuple interpretation overhead and -benchmem tracks the
// steady-state allocation behaviour the pooled paths are required to keep at
// zero. Compare runs with benchstat (see README "Performance").

import (
	"fmt"
	"math/rand"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// benchRows is the per-iteration input size for the pipelined operators.
const benchRows = 1 << 18 // 256Ki

var benchTables = map[int]*catalog.Table{}

// benchTable returns a cached table with columns
// id int64 (0..rows), k int64 (64 distinct), v float64, s string (8 distinct).
func benchTable(rows int) *catalog.Table {
	if t, ok := benchTables[rows]; ok {
		return t
	}
	t := catalog.NewTable(benchName(rows), catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "k", Typ: vector.Int64},
		{Name: "v", Typ: vector.Float64},
		{Name: "s", Typ: vector.String},
	})
	rng := rand.New(rand.NewSource(42))
	w := t.BeginWrite()
	app := w.Appender()
	for i := 0; i < rows; i++ {
		app.Int64(0, int64(i))
		app.Int64(1, rng.Int63n(64))
		app.Float64(2, rng.Float64()*1000)
		app.String(3, fmt.Sprintf("tag-%d", rng.Int63n(8)))
		app.FinishRow()
	}
	w.Commit()
	benchTables[rows] = t
	return t
}

// benchName names benchTable(rows) by its size: Ctx.SnapFor keys snapshots
// by table name, so two sizes under one name would read one snapshot.
func benchName(rows int) string { return fmt.Sprintf("bench%d", rows) }

// benchScan builds a fresh scan of all columns of t.
func benchScan(t *catalog.Table) (*TableScan, catalog.Schema) {
	schema := t.Schema
	cols := make([]int, len(schema))
	for i := range cols {
		cols[i] = i
	}
	return NewTableScan(t, cols, schema), schema
}

// drain pulls op to completion and returns the row count.
func drain(b testing.TB, ctx *Ctx, op Operator) int64 {
	if err := op.Open(ctx); err != nil {
		b.Fatal(err)
	}
	var rows int64
	for {
		batch, err := op.Next(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if batch == nil {
			break
		}
		rows += int64(batch.Len())
	}
	if err := op.Close(ctx); err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkFilter measures scan -> filter at two selectivities. The
// selective case is where selection vectors pay: almost every input row is
// dropped, so per-survivor copying must not dominate.
func BenchmarkFilter(b *testing.B) {
	t := benchTable(benchRows)
	for _, tc := range []struct {
		name string
		pct  int64
	}{
		{"2pct", 2},
		{"50pct", 50},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := NewCtx(catalog.New())
			cutoff := int64(benchRows) * tc.pct / 100
			b.SetBytes(int64(benchRows) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan, _ := benchScan(t)
				pred := expr.Lt(expr.C("id"), expr.Int(cutoff))
				rows := drain(b, ctx, pipeFilter(b, scan, pred, nil))
				if rows != cutoff {
					b.Fatalf("got %d rows, want %d", rows, cutoff)
				}
			}
			b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkJoin measures an inner hash join: 16Ki-row build side, 256Ki-row
// probe side, int64 key, ~1 match per probe row.
func BenchmarkJoin(b *testing.B) {
	probe := benchTable(benchRows)
	build := benchTable(1 << 14)
	ctx := NewCtx(catalog.New())
	b.SetBytes(int64(benchRows) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left, lschema := benchScan(probe)
		right, rschema := benchScan(build)
		out := append(append(catalog.Schema{}, lschema...), rschema...)
		// Probe ids 0..256Ki against build ids 0..16Ki: every probe row is
		// hashed and probed, the first 16Ki match exactly once.
		j := pipeJoin(plan.Inner, left, right, []int{0}, []int{0}, out, nil)
		rows := drain(b, ctx, j)
		if rows != 1<<14 {
			b.Fatalf("got %d rows, want %d", rows, 1<<14)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "probe-rows/sec")
}

// BenchmarkHashAgg measures grouped aggregation: 64 groups, sum+count over
// 256Ki rows.
func BenchmarkHashAgg(b *testing.B) {
	t := benchTable(benchRows)
	ctx := NewCtx(catalog.New())
	b.SetBytes(int64(benchRows) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, _ := benchScan(t)
		agg := expr.C("v")
		outSchema := catalog.Schema{
			{Name: "k", Typ: vector.Int64},
			{Name: "sum_v", Typ: vector.Float64},
			{Name: "n", Typ: vector.Int64},
		}
		if _, err := agg.Bind(t.Schema); err != nil {
			b.Fatal(err)
		}
		h := pipeAgg(scan, []int{1}, []AggExpr{
			{Func: plan.Sum, Arg: agg, Typ: vector.Float64},
			{Func: plan.Count, Typ: vector.Int64},
		}, outSchema)
		rows := drain(b, ctx, h)
		if rows != 64 {
			b.Fatalf("got %d groups, want 64", rows)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkHashAggManyGroups stresses the table itself: ~64Ki groups.
func BenchmarkHashAggManyGroups(b *testing.B) {
	t := benchTable(benchRows)
	ctx := NewCtx(catalog.New())
	b.SetBytes(int64(benchRows) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, _ := benchScan(t)
		outSchema := catalog.Schema{
			{Name: "id", Typ: vector.Int64},
			{Name: "n", Typ: vector.Int64},
		}
		h := pipeAgg(scan, []int{0}, []AggExpr{
			{Func: plan.Count, Typ: vector.Int64},
		}, outSchema)
		rows := drain(b, ctx, h)
		if rows != benchRows {
			b.Fatalf("got %d groups, want %d", rows, benchRows)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkHashAggTwoKeys is Q21's inner aggregation shape — count(*)
// grouped by (l_orderkey, l_suppkey), one group per row — over (id, k):
// the generic two-column hash, a directory insert per row and accumulator
// growth per group dominate.
func BenchmarkHashAggTwoKeys(b *testing.B) {
	t := benchTable(benchRows)
	ctx := NewCtx(catalog.New())
	b.SetBytes(int64(benchRows) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, _ := benchScan(t)
		outSchema := catalog.Schema{
			{Name: "id", Typ: vector.Int64},
			{Name: "k", Typ: vector.Int64},
			{Name: "n", Typ: vector.Int64},
		}
		h := pipeAgg(scan, []int{0, 1}, []AggExpr{
			{Func: plan.Count, Typ: vector.Int64},
		}, outSchema)
		rows := drain(b, ctx, h)
		if rows != benchRows {
			b.Fatalf("got %d groups, want %d", rows, benchRows)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkSort measures a full blocking sort of 256Ki rows by float64 key.
func BenchmarkSort(b *testing.B) {
	t := benchTable(benchRows)
	ctx := NewCtx(catalog.New())
	b.SetBytes(int64(benchRows) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, _ := benchScan(t)
		s := NewSort(scan, []plan.SortKey{{Col: "v"}}, 0)
		rows := drain(b, ctx, s)
		if rows != benchRows {
			b.Fatalf("got %d rows, want %d", rows, benchRows)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkTopN measures the bounded sort: the first N rows by one key, over
// 4Ki and 256Ki rows, at N 10, 100 and 10000 (rewrite.WideTopN), by a
// distinct float key (v) and by a 64-value int key (k). The monotone cases
// sort ascending ids descending, so every row orders before the bound and
// enters the arena.
func BenchmarkTopN(b *testing.B) {
	type benchCase struct {
		name string
		rows int
		n    int
		key  plan.SortKey
	}
	var cases []benchCase
	for _, rows := range []int{1 << 12, benchRows} {
		for _, n := range []int{10, 100, 10000} {
			for _, key := range []plan.SortKey{{Col: "v"}, {Col: "k"}} {
				cases = append(cases, benchCase{fmt.Sprintf("%dKi/N=%d/key=%s", rows>>10, n, key.Col), rows, n, key})
			}
		}
	}
	for _, n := range []int{10, 1000} {
		cases = append(cases, benchCase{fmt.Sprintf("monotone-%dKi/N=%d", benchRows>>10, n), benchRows, n, plan.SortKey{Col: "id", Desc: true}})
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			t := benchTable(tc.rows)
			ctx := NewCtx(catalog.New())
			want := int64(min(tc.n, tc.rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan, _ := benchScan(t)
				if rows := drain(b, ctx, NewSort(scan, []plan.SortKey{tc.key}, tc.n)); rows != want {
					b.Fatalf("got %d rows, want %d", rows, want)
				}
			}
			b.ReportMetric(float64(tc.rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}
