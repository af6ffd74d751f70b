package recycledb_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"recycledb"

	"recycledb/internal/expr"
	"recycledb/internal/harness"
	"recycledb/internal/plan"
)

// TestStatementRecordAgreesWithRecycler holds the per-statement record to
// the recycler's engine totals: over a fixed serial draw of the optimizer
// mix, the statements' Reused, SubsumptionReused and Materialized sum to the
// recycler's Reuses, SubsumptionReuse and Materializations deltas, and the
// statement count to its Queries delta, in every recycling mode at one and
// at four workers.
func TestStatementRecordAgreesWithRecycler(t *testing.T) {
	cat := harness.MixedCatalog(0.01, 5000, 1)
	mix := harness.OptimizerMix(4, 3)
	draws := 300
	if testing.Short() {
		draws = 100
	}
	var nonZero struct{ reused, subsumed, materialized bool }
	for _, mode := range []recycledb.Mode{recycledb.History, recycledb.Speculative, recycledb.Proactive} {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("%v/par=%d", mode, par)
			eng := recycledb.NewWithCatalog(recycledb.Config{Mode: mode, Parallelism: par}, cat)
			before := eng.Recycler().Stats()
			var reused, subsumed, materialized int64
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < draws; i++ {
				q := mix.Pick(rng)
				res, err := eng.ExecuteContext(context.Background(), q.Plan)
				if err != nil {
					t.Fatalf("%s draw %d %s: %v", label, i, q.Label, err)
				}
				reused += int64(res.Stats.Reused)
				subsumed += int64(res.Stats.SubsumptionReused)
				materialized += int64(res.Stats.Materialized)
			}
			after := eng.Recycler().Stats()
			t.Logf("%s: reused %d, subsumed %d, materialized %d", label, reused, subsumed, materialized)
			for _, c := range []struct {
				name      string
				stmt, rec int64
			}{
				{"reused vs Reuses", reused, after.Reuses - before.Reuses},
				{"subsumed vs SubsumptionReuse", subsumed, after.SubsumptionReuse - before.SubsumptionReuse},
				{"materialized vs Materializations", materialized, after.Materializations - before.Materializations},
				{"statements vs Queries", int64(draws), after.Queries - before.Queries},
			} {
				if c.stmt != c.rec {
					t.Errorf("%s: %s: statements sum to %d, the recycler counted %d", label, c.name, c.stmt, c.rec)
				}
			}
			nonZero.reused = nonZero.reused || reused > 0
			nonZero.subsumed = nonZero.subsumed || subsumed > 0
			nonZero.materialized = nonZero.materialized || materialized > 0
		}
	}
	if !nonZero.reused || !nonZero.subsumed || !nonZero.materialized {
		t.Fatalf("a sum was zero in every engine, so its check is vacuous: %+v", nonZero)
	}
}

// TestStatsReadableAtOpen pins what a caller may read from Stats before it
// drains: a warm root hit reports its probe time and its reuse as soon as
// Stmt.Query returns, and Stats read between batches, while a parallel
// fragment's workers run the join build (and complete the speculative store
// of its aggregated build side), is race-free.
func TestStatsReadableAtOpen(t *testing.T) {
	cat := rootHitCatalog()

	t.Run("warm root hit", func(t *testing.T) {
		eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative, Parallelism: 1}, cat)
		s := prepare(t, eng, q6Text)
		for i := 0; i < 3; i++ {
			runStmt(t, s, q6Args()...)
		}
		rows, err := s.Query(context.Background(), q6Args()...)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if st := rows.Stats(); st.Matching <= 0 || st.Reused != 1 {
			t.Fatalf("stats at open: Matching %v, Reused %d; want > 0 and 1", st.Matching, st.Reused)
		}
	})

	t.Run("cold parallel scan-join-aggregate", func(t *testing.T) {
		eng := newSmallVectorEngine(recycledb.Config{Mode: recycledb.Speculative, Parallelism: 4}, cat)
		supp := plan.NewAggregate(plan.NewScan("partsupp", "ps_suppkey", "ps_supplycost"),
			[]string{"ps_suppkey"}, plan.A(plan.Sum, expr.C("ps_supplycost"), "cost"))
		q := plan.NewJoin(plan.Inner, plan.NewScan("lineitem", "l_orderkey", "l_suppkey"), supp,
			[]string{"l_suppkey"}, []string{"ps_suppkey"})
		rows, err := eng.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		batches := 0
		for {
			b, err := rows.Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st := rows.Stats()
			if b == nil {
				if st.Rows == 0 || st.Materialized == 0 {
					t.Fatalf("stats at end: %+v; want rows and an admitted store", st)
				}
				break
			}
			batches++
		}
		if batches < 2 {
			t.Fatalf("%d batches: no Stats call fell between two Next calls", batches)
		}
		if recycledb.Record(rows).ParallelFragments.Load() == 0 {
			t.Fatal("the join ran serially; no worker ran beside Stats")
		}
	})
}
