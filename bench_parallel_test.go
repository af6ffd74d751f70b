package recycledb_test

// Intra-query scaling benchmarks: one client, one scan-heavy TPC-H-shaped
// query, worker counts swept 1/2/4/8/16. The headline metric is the
// speedup of the whole query (materialized) over the Parallelism=1 run of
// the same shape — on a machine with enough cores the morsel-parallel
// scan-filter-aggregate pipeline should approach linear until the merge
// and serial consumers dominate. Budget sharing (intra-query workers yield
// to inter-query concurrency as clients pile up) is not measured here: every
// run has one client.

import (
	"context"
	"fmt"
	"testing"

	"recycledb"

	"recycledb/internal/expr"
	"recycledb/internal/harness"
	"recycledb/internal/plan"
)

// scanHeavyQuery is a Q6/Q1-shaped plan: a wide lineitem scan, a selective
// filter, and a grouped aggregation — the pipeline shape the paper's
// workloads spend most of their time in.
func scanHeavyQuery() *plan.Node {
	sel := plan.NewSelect(
		plan.NewScan("lineitem", "l_quantity", "l_extendedprice", "l_discount", "l_returnflag", "l_linestatus"),
		expr.Lt(expr.C("l_quantity"), expr.Flt(40)))
	return plan.NewAggregate(sel, []string{"l_returnflag", "l_linestatus"},
		plan.A(plan.Sum, expr.C("l_extendedprice"), "sum_price"),
		plan.A(plan.Avg, expr.C("l_discount"), "avg_disc"),
		plan.A(plan.Count, nil, "n"))
}

// filterHeavyQuery stresses the ordered exchange (no aggregation): the
// merged stream is the full filtered row set.
func filterHeavyQuery() *plan.Node {
	return plan.NewSelect(
		plan.NewScan("lineitem", "l_orderkey", "l_extendedprice", "l_discount"),
		expr.Lt(expr.C("l_discount"), expr.Flt(0.03)))
}

func BenchmarkParallelScaling(b *testing.B) {
	// ~300k lineitem rows: enough morsels for 16 workers.
	cat := harness.LoadTPCH(harness.TPCHConfig{SF: 0.05, Seed: 1})
	shapes := map[string]*plan.Node{
		"scan-agg":    scanHeavyQuery(),
		"scan-filter": filterHeavyQuery(),
	}
	for name, q := range shapes {
		for _, par := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/%dworkers", name, par), func(b *testing.B) {
				eng := recycledb.NewWithCatalog(recycledb.Config{
					Mode:        recycledb.Off, // isolate executor scaling from caching
					Parallelism: par,
				}, cat)
				// Warm snapshots and pools.
				if _, err := eng.ExecuteContext(context.Background(), q); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.ExecuteContext(context.Background(), q)
					if err != nil {
						b.Fatal(err)
					}
					if res.Rows() == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}
