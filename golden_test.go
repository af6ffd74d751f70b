package recycledb_test

// Golden equivalence: every TPC-H and SkyServer query must produce the same
// result no matter how it is executed — without recycling, with recycling
// (cold and warm cache), streamed batch by batch, or issued by 8 concurrent
// goroutines against one shared engine. Results are compared in canonical
// form (order-insensitive, float-tolerant): keyed by the non-float columns,
// with per-key row counts and float-column sums, so hash-aggregation
// ordering and re-aggregation float noise do not produce false alarms.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"recycledb"

	"recycledb/internal/catalog"
	"recycledb/internal/harness"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
	"recycledb/internal/workload"
)

// canonRow aggregates all result rows sharing one key: the row count and
// the element-wise sums of the float columns (order-insensitive and robust
// to float association noise).
type canonRow struct {
	count int
	sums  []float64
}

// canonBatches folds batches into canonical form under the given schema.
func canonBatches(schema catalog.Schema, batches []*vector.Batch) map[string]*canonRow {
	floatCols := make([]bool, len(schema))
	for i, c := range schema {
		floatCols[i] = c.Typ == vector.Float64
	}
	out := make(map[string]*canonRow)
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			var key strings.Builder
			var sums []float64
			for c, d := range row {
				if floatCols[c] {
					sums = append(sums, d.F64)
				} else {
					key.WriteString(d.String())
					key.WriteByte('|')
				}
			}
			cr := out[key.String()]
			if cr == nil {
				cr = &canonRow{sums: make([]float64, len(sums))}
				out[key.String()] = cr
			}
			cr.count++
			for s, v := range sums {
				cr.sums[s] += v
			}
		}
	}
	return out
}

// canonDiff compares two canonical results with float tolerance and returns
// a description of the first difference, or "".
func canonDiff(want, got map[string]*canonRow) string {
	if len(want) != len(got) {
		return fmt.Sprintf("key counts differ: want %d, got %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("key %q missing", k)
		}
		if w.count != g.count {
			return fmt.Sprintf("key %q: row count %d vs %d", k, w.count, g.count)
		}
		for i := range w.sums {
			if floatsDiffer(w.sums[i], g.sums[i]) {
				return fmt.Sprintf("key %q float col %d: %v vs %v", k, i, w.sums[i], g.sums[i])
			}
		}
	}
	return ""
}

// floatsDiffer is the golden tests' float tolerance: absolute 1e-6 or
// relative 1e-9, whichever is looser.
func floatsDiffer(want, got float64) bool {
	d := math.Abs(want - got)
	return d > 1e-6 && d > 1e-9*math.Abs(want)
}

// canonResult canonicalizes a materialized result.
func canonResult(r *recycledb.Result) map[string]*canonRow {
	return canonBatches(r.Schema, r.Raw().Batches)
}

// goldenQueries builds the full query set: all 22 TPC-H patterns with fixed
// stream-0 parameters plus the SkyServer workload patterns.
func goldenQueries() []workload.Query {
	var out []workload.Query
	for _, p := range tpch.NewStream(0, 42).Queries {
		out = append(out, workload.Query{Label: fmt.Sprintf("Q%d", p.Q), Plan: tpch.Build(p)})
	}
	for i, q := range skyserver.Workload(12, 42) {
		out = append(out, workload.Query{Label: fmt.Sprintf("sky-%d-%s", i, q.Pattern), Plan: q.Plan})
	}
	return out
}

func TestGoldenEquivalence(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 4000, 1)
	queries := goldenQueries()

	// Ground truth: the recorded digests (golden_digest_test.go).
	want := goldenSection(t, "base", cat, queries)

	// Every recycling mode, two rounds each (cold cache, then warm cache
	// exercising reuse/subsumption/proactive substitution).
	for _, mode := range harness.Modes {
		eng := recycledb.NewWithCatalog(recycledb.Config{Mode: mode}, cat)
		for round := 0; round < 2; round++ {
			for i, q := range queries {
				r, err := eng.ExecuteContext(context.Background(), q.Plan)
				if err != nil {
					t.Fatalf("mode %v round %d %s: %v", mode, round, q.Label, err)
				}
				if d := want[i].diff(canonResult(r)); d != "" {
					t.Fatalf("mode %v round %d %s: %s", mode, round, q.Label, d)
				}
			}
		}
	}

	// Streaming execution: batches consumed incrementally.
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative}, cat)
	for i, q := range queries {
		rows, err := eng.Stream(context.Background(), q.Plan)
		if err != nil {
			t.Fatalf("stream %s: %v", q.Label, err)
		}
		got := make(map[string]*canonRow)
		for b, err := range rows.All(context.Background()) {
			if err != nil {
				t.Fatalf("stream %s: %v", q.Label, err)
			}
			for k, cr := range canonBatches(rows.Schema(), []*vector.Batch{b}) {
				if prev := got[k]; prev == nil {
					got[k] = cr
				} else {
					prev.count += cr.count
					for s := range cr.sums {
						prev.sums[s] += cr.sums[s]
					}
				}
			}
		}
		if d := want[i].diff(got); d != "" {
			t.Fatalf("streaming %s: %s", q.Label, d)
		}
	}

	// 8-way concurrent execution against one shared recycling engine: the
	// same query runs in many goroutines at once, so reuse, in-flight
	// stalls, and direct handoff all fire — results must not change.
	conc := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative}, cat)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				r, err := conc.ExecuteContext(context.Background(), q.Plan)
				if err != nil {
					errs <- fmt.Errorf("worker %d %s: %w", w, q.Label, err)
					return
				}
				if d := want[i].diff(canonResult(r)); d != "" {
					errs <- fmt.Errorf("worker %d %s: %s", w, q.Label, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
