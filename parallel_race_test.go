package recycledb_test

// Parallel-pipeline race stress: 8 client goroutines run morsel-parallel
// queries against one shared engine while control operations (SetMode,
// FlushCache) and epoch-committing DML fire at random. Every query result
// is checked for internal consistency (the engine's snapshot guarantee: a
// statement observes exactly one committed epoch end to end, whichever
// workers scanned it). Under -race this exercises the exchange merge, the
// shared partitioned join build, partial-aggregation merge, worker-side
// recycler callbacks, and the pool's per-worker scratch path all at once.

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
	"recycledb/internal/workload"
)

func TestParallelRaceStress(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 10000, 1)
	mix := harness.MixedMix(2, 1)

	rng := rand.New(rand.NewSource(7))
	var instances []workload.Query
	for i := 0; i < 16; i++ {
		q := mix.Pick(rng)
		if q.Plan == nil {
			t.Fatal("mix produced an empty query")
		}
		instances = append(instances, q)
	}

	// Parallelism 32 over 8 clients: the per-statement budget stays > 1
	// even with every client in flight, so fragments really fan out.
	eng := newSmallVectorEngine(recycledb.Config{
		Mode:        recycledb.Speculative,
		CacheBytes:  8 << 20,
		Parallelism: 32,
	}, cat)
	modes := []recycledb.Mode{
		recycledb.Off, recycledb.History, recycledb.Speculative, recycledb.Proactive,
	}
	appendLineitem := harness.SyntheticAppender(cat, "lineitem", 16)
	deleteLineitem := harness.SyntheticDeleter(cat, "lineitem", 8)
	appendSky := harness.SyntheticAppender(cat, "PhotoPrimary", 12)

	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	deadline := time.Now().Add(duration)

	var wg sync.WaitGroup
	var queries, writes, frags atomic.Int64
	errs := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) * 31337))
			for time.Now().Before(deadline) {
				switch r := rng.Float64(); {
				case r < 0.04:
					eng.SetMode(modes[rng.Intn(len(modes))])
				case r < 0.06:
					eng.FlushCache()
				case r < 0.16:
					var err error
					switch rng.Intn(3) {
					case 0:
						err = appendLineitem(c, rng)
					case 1:
						err = deleteLineitem(c, rng)
					default:
						err = appendSky(c, rng)
					}
					if err != nil {
						errs <- fmt.Errorf("client %d write: %w", c, err)
						return
					}
					writes.Add(1)
				default:
					q := instances[rng.Intn(len(instances))]
					res, rec, err := executeRecorded(eng, q.Plan)
					if err != nil {
						errs <- fmt.Errorf("client %d %s: %w", c, q.Label, err)
						return
					}
					frags.Add(rec.ParallelFragments.Load())
					// Self-consistency: canonicalization walks every row,
					// so torn batches (a worker reading a half-published
					// epoch) surface as schema/row-shape panics or
					// impossible counts.
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
	if frags.Load() == 0 {
		t.Fatal("stress ran fully serial; parallel fragments never engaged")
	}
	t.Logf("stress: %d queries, %d writes, %d parallel fragments",
		queries.Load(), writes.Load(), frags.Load())
}

// TestParallelSnapshotConsistencyUnderDML pins the snapshot guarantee for
// parallel scans: a counting query must see exactly the rows of one
// committed epoch even while a writer commits between (and during) its
// morsels. Row counts are only ever the before- or after-count of an
// epoch, never a mix.
func TestParallelSnapshotConsistencyUnderDML(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 4000, 1)
	eng := newSmallVectorEngine(recycledb.Config{Mode: recycledb.Off, Parallelism: 8}, cat)
	appendLineitem := harness.SyntheticAppender(cat, "lineitem", 64)

	stop := make(chan struct{})
	var writerErr error
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := appendLineitem(0, rng); err != nil {
				writerErr = err
				return
			}
		}
	}()

	// count(*) grouped to force a multi-worker aggregation over the full scan.
	q, err := eng.Prepare(`SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY l_returnflag`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		res, err := q.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, b := range res.Batches {
			for r := 0; r < b.Len(); r++ {
				total += b.Row(r)[1].I64
			}
		}
		tbl, err := cat.Table("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		// The statement's count can lag the live table (snapshots are
		// captured at statement start) but can never exceed it, and can
		// never go backwards past what was committed before the statement
		// began — a torn multi-morsel read would do one or the other.
		if total > int64(tbl.Rows()) {
			t.Fatalf("iteration %d: counted %d rows > live %d (torn snapshot)", i, total, tbl.Rows())
		}
	}
	close(stop)
	wwg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}
