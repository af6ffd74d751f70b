package recycledb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

func dmlEngine(mode Mode) *Engine {
	e := New(Config{Mode: mode})
	ev := catalog.NewTable("ev", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "grp", Typ: vector.String},
		{Name: "score", Typ: vector.Float64},
	})
	w := ev.BeginWrite()
	ap := w.Appender()
	groups := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		ap.Int64(0, int64(i))
		ap.String(1, groups[i%3])
		ap.Float64(2, float64(i%100))
		ap.FinishRow()
	}
	w.Commit()
	e.Catalog().AddTable(ev)
	return e
}

func countRows(t *testing.T, e *Engine, where string) int64 {
	t.Helper()
	q := "SELECT count(*) AS n FROM ev"
	if where != "" {
		q += " WHERE " + where
	}
	r, err := e.QueryCollect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return r.Batches[0].Vecs[0].I64[0]
}

func TestExecInsert(t *testing.T) {
	e := dmlEngine(Off)
	res, err := e.Exec(context.Background(),
		`INSERT INTO ev VALUES (1000, 'z', 1.5), (1001, 'z', 2.5)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	if n := countRows(t, e, "grp = 'z'"); n != 2 {
		t.Fatalf("inserted rows visible = %d", n)
	}
}

func TestExecInsertParamsPrepared(t *testing.T) {
	e := dmlEngine(Off)
	stmt, err := e.Prepare(`INSERT INTO ev (id, grp, score) VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.IsQuery() || stmt.NumParams() != 3 {
		t.Fatalf("IsQuery=%v params=%d", stmt.IsQuery(), stmt.NumParams())
	}
	for i := 0; i < 5; i++ {
		res, err := stmt.Exec(context.Background(), 2000+i, "w", float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("affected = %d", res.RowsAffected)
		}
	}
	if n := countRows(t, e, "grp = 'w'"); n != 5 {
		t.Fatalf("rows = %d", n)
	}
	// DML through the streaming query paths is a typed error.
	if _, err := stmt.Query(context.Background(), 1, "x", 2.0); !errors.Is(err, ErrNotQuery) {
		t.Fatalf("Query on INSERT: %v", err)
	}
	if _, err := e.Query(context.Background(), `DELETE FROM ev`); !errors.Is(err, ErrNotQuery) {
		t.Fatalf("Engine.Query on DELETE: %v", err)
	}
}

func TestExecDelete(t *testing.T) {
	e := dmlEngine(Off)
	res, err := e.Exec(context.Background(), `DELETE FROM ev WHERE score >= ?`, 50.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 150 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	if n := countRows(t, e, ""); n != 150 {
		t.Fatalf("remaining = %d", n)
	}
	if n := countRows(t, e, "score >= 50"); n != 0 {
		t.Fatalf("deleted rows still visible: %d", n)
	}
	// Deleting the same rows again affects nothing.
	res, err = e.Exec(context.Background(), `DELETE FROM ev WHERE score >= 50`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 0 {
		t.Fatalf("double delete affected %d", res.RowsAffected)
	}
}

func TestExecCreateTable(t *testing.T) {
	e := New(Config{})
	if _, err := e.Exec(context.Background(),
		`CREATE TABLE m (host TEXT, cpu DOUBLE, day DATE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(context.Background(),
		`INSERT INTO m VALUES ('a', 0.5, DATE '2026-01-01')`); err != nil {
		t.Fatal(err)
	}
	r, err := e.QueryCollect(context.Background(), `SELECT host, cpu FROM m`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 1 {
		t.Fatalf("rows = %d", r.Rows())
	}
	// Duplicate creation errors.
	if _, err := e.Exec(context.Background(), `CREATE TABLE m (x INT)`); err == nil {
		t.Fatal("duplicate CREATE TABLE accepted")
	}
}

// TestInvalidationNoStaleReads: a cached aggregate must never be replayed
// after a write to its base table, in any recycling mode.
func TestInvalidationNoStaleReads(t *testing.T) {
	for _, mode := range []Mode{Off, History, Speculative, Proactive} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			e := dmlEngine(mode)
			const q = `SELECT grp, count(*) AS n, sum(score) AS total FROM ev GROUP BY grp`
			// Warm the cache (history mode stores on re-execution).
			for i := 0; i < 3; i++ {
				if _, err := e.QueryCollect(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Exec(context.Background(),
				`INSERT INTO ev VALUES (9000, 'a', 10)`); err != nil {
				t.Fatal(err)
			}
			if n := countRows(t, e, "grp = 'a'"); n != 101 {
				t.Fatalf("count after insert = %d", n)
			}
			r, err := e.QueryCollect(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < r.Batches[0].Len(); i++ {
				row := r.Batches[0].Row(i)
				if row[0].Str == "a" && row[1].I64 != 101 {
					t.Fatalf("stale aggregate after insert: %+v", row)
				}
			}
			// A delete epoch too.
			if _, err := e.Exec(context.Background(),
				`DELETE FROM ev WHERE grp = 'b'`); err != nil {
				t.Fatal(err)
			}
			r, err = e.QueryCollect(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < r.Batches[0].Len(); i++ {
				if row := r.Batches[0].Row(i); row[0].Str == "b" {
					t.Fatalf("deleted group still aggregated: %+v", row)
				}
			}
		})
	}
}

// TestDeltaExtensionMatchesRecompute is the delta-extension correctness
// property test: a cached selection/projection subtree extended over random
// append epochs must stay row-for-row equivalent to recomputation from
// scratch, across many random thresholds and batch sizes.
func TestDeltaExtensionMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := dmlEngine(History)
	off := NewWithCatalog(Config{Mode: Off}, e.Catalog())
	const q = `SELECT id, score FROM ev WHERE score > 42`

	canon := func(eng *Engine) map[string]int {
		r, err := eng.QueryCollect(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int)
		for _, b := range r.Batches {
			for i := 0; i < b.Len(); i++ {
				row := b.Row(i)
				out[fmt.Sprintf("%d|%v", row[0].I64, row[1].F64)]++
			}
		}
		return out
	}

	// Warm until the selection result is cached: its references must pay
	// for the copy (about four, for this 300-row table).
	for i := 0; i < 5; i++ {
		canon(e)
	}
	if e.Recycler().Stats().CacheEntries == 0 {
		t.Fatal("selection result not cached; test needs a cached entry to extend")
	}

	extBefore := e.Recycler().Stats().DeltaExtended
	for epoch := 0; epoch < 10; epoch++ {
		n := 1 + rng.Intn(40)
		tbl, err := e.Catalog().Table("ev")
		if err != nil {
			t.Fatal(err)
		}
		w := tbl.BeginWrite()
		ap := w.Appender()
		base := w.Rows()
		for r := 0; r < n; r++ {
			ap.Int64(0, int64(10000+base+r))
			ap.String(1, "d")
			ap.Float64(2, float64(rng.Intn(200))-50)
			ap.FinishRow()
		}
		w.Commit()

		want := canon(off) // recompute from scratch, no recycling
		got := canon(e)    // replays the delta-extended entry
		if len(want) != len(got) {
			t.Fatalf("epoch %d: %d rows recomputed vs %d recycled", epoch, len(want), len(got))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("epoch %d: key %s count %d vs %d", epoch, k, c, got[k])
			}
		}
	}
	st := e.Recycler().Stats()
	if st.DeltaExtended == extBefore {
		t.Fatal("no delta extensions happened; the property test exercised nothing")
	}
	if st.Reuses == 0 {
		t.Fatal("extended entries were never reused")
	}
}

// TestCacheAccountingUnderInvalidation checks the byte-accounting
// invariants while entries are admitted, delta-extended, and invalidated:
// used bytes never exceed the budget and never go negative.
func TestCacheAccountingUnderInvalidation(t *testing.T) {
	e := New(Config{Mode: History, CacheBytes: 1 << 20})
	ev := catalog.NewTable("ev", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "score", Typ: vector.Float64},
	})
	w := ev.BeginWrite()
	ap := w.Appender()
	for i := 0; i < 2000; i++ {
		ap.Int64(0, int64(i))
		ap.Float64(1, float64(i%500))
		ap.FinishRow()
	}
	w.Commit()
	e.Catalog().AddTable(ev)

	rng := rand.New(rand.NewSource(3))
	check := func(stage string) {
		st := e.Recycler().Stats()
		if st.CacheBytes < 0 {
			t.Fatalf("%s: negative cache bytes %d", stage, st.CacheBytes)
		}
		if st.CacheBytes > 1<<20 {
			t.Fatalf("%s: cache bytes %d exceed budget", stage, st.CacheBytes)
		}
		if st.CacheEntries == 0 && st.CacheBytes != 0 {
			t.Fatalf("%s: empty cache holds %d bytes", stage, st.CacheBytes)
		}
	}
	for round := 0; round < 30; round++ {
		for i := 0; i < 4; i++ {
			// Few distinct thresholds: repeats are frequent, so
			// history-mode stores fire early and reliably.
			q := fmt.Sprintf(`SELECT id, score FROM ev WHERE score > %d`, rng.Intn(8)*50)
			if _, err := e.QueryCollect(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		check("after queries")
		wr := ev.BeginWrite()
		wap := wr.Appender()
		for r := 0; r < 50; r++ {
			wap.Int64(0, int64(100000+round*50+r))
			wap.Float64(1, float64(rng.Intn(500)))
			wap.FinishRow()
		}
		if round%4 == 3 {
			wr.Delete(rng.Intn(2000))
		}
		wr.Commit()
		check("after commit")
	}
	st := e.Recycler().Stats()
	if st.DeltaExtended == 0 && st.Invalidated == 0 {
		t.Fatal("no invalidation activity; invariants untested")
	}
	e.FlushCache()
	if got := e.Recycler().Stats().CacheBytes; got != 0 {
		t.Fatalf("bytes after flush = %d", got)
	}
}

// TestConcurrentDMLConsistency is the engine-level readers-vs-writers race
// test: concurrent clients query while writers append and delete through
// Engine.Exec. Every query must observe an internally consistent snapshot:
// ev rows always satisfy score == float64(id%100), so sum(score) computed
// over any snapshot must equal the sum implied by its own count per group.
func TestConcurrentDMLConsistency(t *testing.T) {
	e := New(Config{Mode: Speculative})
	ev := catalog.NewTable("ev", catalog.Schema{
		{Name: "one", Typ: vector.Int64},
		{Name: "mirror", Typ: vector.Int64},
	})
	w := ev.BeginWrite()
	ap := w.Appender()
	for i := 0; i < 500; i++ {
		ap.Int64(0, 1)
		ap.Int64(1, 1)
		ap.FinishRow()
	}
	w.Commit()
	e.Catalog().AddTable(ev)

	const writers = 2
	const readersN = 4
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for wi := 0; wi < writers; wi++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for i := 0; i < iters; i++ {
				if _, err := e.Exec(context.Background(),
					`INSERT INTO ev VALUES (1, 1), (1, 1), (1, 1)`); err != nil {
					t.Error(err)
					return
				}
				if i%4 == 3 {
					// Delete nothing-matching rows: still a full (non
					// append-only dedup) epoch when rows match; either
					// way the sum==count invariant must hold.
					if _, err := e.Exec(context.Background(),
						`DELETE FROM ev WHERE mirror > 1`); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for ri := 0; ri < readersN; ri++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := e.QueryCollect(context.Background(),
					`SELECT count(*) AS n, sum(one) AS s, sum(mirror) AS m FROM ev`)
				if err != nil {
					t.Error(err)
					return
				}
				row := r.Batches[0].Row(0)
				if row[0].I64 != row[1].I64 || row[0].I64 != row[2].I64 {
					t.Errorf("torn statement snapshot: count %d sum-one %d sum-mirror %d",
						row[0].I64, row[1].I64, row[2].I64)
					return
				}
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
}
