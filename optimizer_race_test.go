package recycledb_test

// Optimizer race stress: 8 client goroutines draw permuted-conjunct queries
// (fresh plan trees per draw, so the optimized-shape cache sees a live mix
// of hits and misses) against one shared engine while mode switches, cache
// flushes, and epoch-committing DML fire at random. Under -race this
// exercises the shape-cache LRU, the recycler probes inside optimization,
// and concurrent re-optimization of one shape all at once.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recycledb"

	"recycledb/internal/harness"
)

func TestOptimizerRaceStress(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 10000, 1)
	mix := harness.OptimizerMix(2, 1)

	eng := newSmallVectorEngine(recycledb.Config{
		Mode:        recycledb.Speculative,
		CacheBytes:  8 << 20,
		Parallelism: 8,
	}, cat)
	modes := []recycledb.Mode{
		recycledb.Off, recycledb.History, recycledb.Speculative, recycledb.Proactive,
	}
	appendLineitem := harness.SyntheticAppender(cat, "lineitem", 16)
	appendSky := harness.SyntheticAppender(cat, "PhotoPrimary", 12)

	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	deadline := time.Now().Add(duration)

	var wg sync.WaitGroup
	var queries, writes atomic.Int64
	errs := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 11))
			for time.Now().Before(deadline) {
				switch r := rng.Float64(); {
				case r < 0.02:
					eng.SetMode(modes[rng.Intn(len(modes))])
				case r < 0.04:
					eng.FlushCache()
				case r < 0.14:
					var err error
					if rng.Intn(2) == 0 {
						err = appendLineitem(c, rng)
					} else {
						err = appendSky(c, rng)
					}
					if err != nil {
						errs <- fmt.Errorf("client %d write: %w", c, err)
						return
					}
					writes.Add(1)
				default:
					q := mix.Pick(rng)
					res, err := eng.ExecuteContext(context.Background(), q.Plan)
					if err != nil {
						errs <- fmt.Errorf("client %d %s: %w", c, q.Label, err)
						return
					}
					// Self-consistency: canonicalization walks every row,
					// so a plan mangled by a racing optimization (shared
					// subtree mutated, half-swapped cache entry) surfaces
					// as a panic or impossible shape.
					if res.Rows() < 0 {
						errs <- fmt.Errorf("client %d %s: negative row count", c, q.Label)
						return
					}
					_ = canonResult(res)
					queries.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// A fresh permuted draw still plans through the shape cache without
	// error.
	q := mix.Pick(rand.New(rand.NewSource(1)))
	if _, err := eng.ExecuteContext(context.Background(), q.Plan); err != nil {
		t.Fatalf("post-stress query: %v", err)
	}
	t.Logf("stress: %d queries, %d writes", queries.Load(), writes.Load())
}

// TestRootHitRaceStress: 8 clients run warm prepared statements — most of
// them root hits replaying a cached result over the shape cache's shared
// plan — while others commit INSERTs and DELETEs, flush the cache and
// switch modes. Afterwards every statement, warm again, must return what
// ModeOff returns at the final snapshot.
func TestRootHitRaceStress(t *testing.T) {
	cat := rootHitCatalog()
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative, Parallelism: 2}, cat)
	texts := []string{
		q6Text,
		`SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, count(*) AS n
		 FROM lineitem WHERE l_shipdate <= ? GROUP BY l_returnflag, l_linestatus`,
		`SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem WHERE l_quantity < ?
		 ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10`,
	}
	args := [][]any{q6Args(), {time.Date(1998, 9, 2, 0, 0, 0, 0, time.UTC)}, {30}}
	stmts := make([]*recycledb.Stmt, len(texts))
	for i, text := range texts {
		stmts[i] = prepare(t, eng, text)
		for r := 0; r < 2; r++ {
			runStmt(t, stmts[i], args[i]...)
		}
	}
	insText, insArgs := insertRowLike(t, eng, q6Pred)
	modes := []recycledb.Mode{
		recycledb.Off, recycledb.History, recycledb.Speculative, recycledb.Proactive,
	}

	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	var queries, writes atomic.Int64
	errs := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(c)*104729 + 3))
			for time.Now().Before(deadline) {
				var err error
				switch r := rng.Float64(); {
				case r < 0.01:
					eng.SetMode(modes[rng.Intn(len(modes))])
				case r < 0.02:
					eng.FlushCache()
				case r < 0.05:
					_, err = eng.Exec(ctx, insText, insArgs...)
					writes.Add(1)
				case r < 0.07:
					_, err = eng.Exec(ctx, "DELETE FROM lineitem WHERE l_orderkey = ?", 1+rng.Intn(6000))
					writes.Add(1)
				default:
					i := rng.Intn(len(stmts))
					var res *recycledb.Result
					if res, err = stmts[i].Exec(ctx, args[i]...); err == nil {
						_ = canonResult(res)
						queries.Add(1)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	eng.SetMode(recycledb.Speculative)
	for i, text := range texts {
		want := offResult(t, cat, text, args[i]...)
		for r := 0; r < 3; r++ {
			sameResult(t, fmt.Sprintf("statement %d run %d after the stress", i, r), want, runStmt(t, stmts[i], args[i]...))
		}
	}
	if n := eng.ActiveStatements(); n != 0 {
		t.Fatalf("%d statements still hold a slot", n)
	}
	t.Logf("stress: %d queries, %d writes", queries.Load(), writes.Load())
}
