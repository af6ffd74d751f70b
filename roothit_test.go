package recycledb_test

// Root hits: an optimized-shape entry remembers the graph node its plan's
// root matched, and a statement whose root result is cached and valid
// replays it without cloning, matching or walking the plan. These tests pin
// that the shortcut counts what the full rewrite counts, returns what it
// returns, and stays out of the way where the full path decides otherwise.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/harness"
)

// q6Text is TPC-H Q6 as the dialect writes it.
const q6Text = `SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= ? AND l_shipdate < ?
  AND l_discount BETWEEN ? AND ? AND l_quantity < ?`

// q6Args are one draw of Q6's parameters.
func q6Args() []any {
	lo := time.Date(1994, 1, 1, 0, 0, 0, 0, time.UTC)
	return []any{lo, lo.AddDate(1, 0, 0), 0.05, 0.07, 24}
}

// q6Pred is q6Args as a WHERE clause without parameters.
const q6Pred = `l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`

func rootHitCatalog() *catalog.Catalog {
	return harness.LoadTPCH(harness.TPCHConfig{SF: 0.005, Seed: 1})
}

// runStmt runs a prepared statement to completion.
func runStmt(t testing.TB, s *recycledb.Stmt, args ...any) *recycledb.Result {
	t.Helper()
	rows, err := s.Query(context.Background(), args...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func prepare(t testing.TB, e *recycledb.Engine, text string) *recycledb.Stmt {
	t.Helper()
	s, err := e.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// statsDelta is after − before over every counter, with the clock-measured
// MatchTime zeroed: the one field two equal runs need not share.
func statsDelta(before, after core.Stats) core.Stats {
	var d core.Stats
	bv, av, dv := reflect.ValueOf(before), reflect.ValueOf(after), reflect.ValueOf(&d).Elem()
	for i := 0; i < dv.NumField(); i++ {
		if f := dv.Field(i); f.CanInt() {
			f.SetInt(av.Field(i).Int() - bv.Field(i).Int())
		}
	}
	d.MatchTime = 0
	return d
}

// offResult is what a ModeOff engine over cat returns for text now.
func offResult(t *testing.T, cat *catalog.Catalog, text string, args ...any) *recycledb.Result {
	t.Helper()
	off := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Off, Parallelism: 1}, cat)
	return runStmt(t, prepare(t, off, text), args...)
}

func sameResult(t *testing.T, label string, want, got *recycledb.Result) {
	t.Helper()
	if d := canonDiff(canonResult(want), canonResult(got)); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestRootHitCountsLikeFullPath runs one warm statement on two engines with
// identical histories: one takes the root hit, the other, its shape's root
// match forgotten, the full rewrite. Both must count the same, credit the
// root the same and return the same rows.
func TestRootHitCountsLikeFullPath(t *testing.T) {
	cat := rootHitCatalog()
	cfg := recycledb.Config{Mode: recycledb.Speculative, Parallelism: 1}
	fast := recycledb.NewWithCatalog(cfg, cat)
	full := recycledb.NewWithCatalog(cfg, cat)
	sFast, sFull := prepare(t, fast, q6Text), prepare(t, full, q6Text)
	for i := 0; i < 3; i++ {
		runStmt(t, sFast, q6Args()...)
		runStmt(t, sFull, q6Args()...)
	}
	if len(recycledb.ShapeRoots(fast)) != 1 {
		t.Fatal("warm statement's shape entry does not know its root match")
	}
	recycledb.ForgetShapeRoots(full)

	b0, b1 := fast.Recycler().Stats(), full.Recycler().Stats()
	rFast, rFull := runStmt(t, sFast, q6Args()...), runStmt(t, sFull, q6Args()...)
	dFast := statsDelta(b0, fast.Recycler().Stats())
	dFull := statsDelta(b1, full.Recycler().Stats())
	if dFast != dFull {
		t.Fatalf("root hit counted %+v, full path %+v", dFast, dFull)
	}
	if dFast.Queries != 1 || dFast.Reuses != 1 || dFast.NodesInserted != 0 || dFast.NodesMatched == 0 {
		t.Fatalf("a warm root hit counted %+v", dFast)
	}
	if rFast.Stats.Reused != 1 || rFull.Stats.Reused != 1 {
		t.Fatalf("planned reuses: root hit %d, full path %d", rFast.Stats.Reused, rFull.Stats.Reused)
	}
	gFast, gFull := recycledb.ShapeRoots(fast), recycledb.ShapeRoots(full)
	if len(gFull) != 1 || gFast[0].ID != gFull[0].ID {
		t.Fatalf("root matches differ: %v vs %v", gFast, gFull)
	}
	if hf, hl := fast.Recycler().HR(gFast[0]), full.Recycler().HR(gFull[0]); hf != hl {
		t.Fatalf("root HR: root hit %v, full path %v", hf, hl)
	}
	sameResult(t, "root hit vs full path", rFull, rFast)
	sameResult(t, "root hit vs ModeOff", offResult(t, cat, q6Text, q6Args()...), rFast)
}

// TestRootHitNotTakenInModeOff: a warm statement reuses nothing once the
// engine is switched off, and reuses again once switched back.
func TestRootHitNotTakenInModeOff(t *testing.T) {
	cat := rootHitCatalog()
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative, Parallelism: 1}, cat)
	s := prepare(t, eng, q6Text)
	var warm *recycledb.Result
	for i := 0; i < 3; i++ {
		warm = runStmt(t, s, q6Args()...)
	}
	if warm.Stats.Reused != 1 {
		t.Fatalf("warm run reused %d", warm.Stats.Reused)
	}
	eng.SetMode(recycledb.Off)
	before := eng.Recycler().Stats()
	res := runStmt(t, s, q6Args()...)
	if d := statsDelta(before, eng.Recycler().Stats()); d != (core.Stats{}) {
		t.Fatalf("ModeOff run touched the recycler: %+v", d)
	}
	if res.Stats.Reused != 0 {
		t.Fatalf("ModeOff run reused %d", res.Stats.Reused)
	}
	sameResult(t, "ModeOff run", warm, res)
	eng.SetMode(recycledb.Speculative)
	if res := runStmt(t, s, q6Args()...); res.Stats.Reused != 1 {
		t.Fatalf("back in Speculative mode, reused %d", res.Stats.Reused)
	}
}

// TestRootHitProactiveUnchanged: in Proactive mode a known root match
// changes nothing. Two engines warmed identically in Speculative mode, one
// with its root matches forgotten, run the same Proactive sequence and
// must agree run by run on rows and ProactiveApplied, and end with equal
// counters.
func TestRootHitProactiveUnchanged(t *testing.T) {
	cat := rootHitCatalog()
	texts := []string{
		q6Text,
		`SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem WHERE l_quantity < ?
		 ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10`,
	}
	args := [][]any{q6Args(), {30}}
	cfg := recycledb.Config{Mode: recycledb.Speculative, Parallelism: 1}
	known := recycledb.NewWithCatalog(cfg, cat)
	forgot := recycledb.NewWithCatalog(cfg, cat)
	var sKnown, sForgot []*recycledb.Stmt
	for _, text := range texts {
		sKnown = append(sKnown, prepare(t, known, text))
		sForgot = append(sForgot, prepare(t, forgot, text))
	}
	for round := 0; round < 3; round++ {
		for i := range texts {
			runStmt(t, sKnown[i], args[i]...)
			runStmt(t, sForgot[i], args[i]...)
		}
	}
	if len(recycledb.ShapeRoots(known)) != len(texts) {
		t.Fatal("warm statements' shape entries do not know their root matches")
	}
	recycledb.ForgetShapeRoots(forgot)
	known.SetMode(recycledb.Proactive)
	forgot.SetMode(recycledb.Proactive)
	b0, b1 := known.Recycler().Stats(), forgot.Recycler().Stats()
	applied := 0
	for round := 0; round < 3; round++ {
		for i, text := range texts {
			label := fmt.Sprintf("round %d statement %d", round, i)
			rk, rf := runStmt(t, sKnown[i], args[i]...), runStmt(t, sForgot[i], args[i]...)
			if rk.Stats.ProactiveApplied != rf.Stats.ProactiveApplied {
				t.Fatalf("%s: ProactiveApplied %v with a known root, %v without",
					label, rk.Stats.ProactiveApplied, rf.Stats.ProactiveApplied)
			}
			if rk.Stats.ProactiveApplied {
				applied++
			}
			sameResult(t, label, rf, rk)
			sameResult(t, label+" vs ModeOff", offResult(t, cat, text, args[i]...), rk)
		}
	}
	if applied == 0 {
		t.Fatal("no proactive rewrite applied; the test shows nothing")
	}
	dk := statsDelta(b0, known.Recycler().Stats())
	df := statsDelta(b1, forgot.Recycler().Stats())
	if dk != df {
		t.Fatalf("Proactive counters with a known root %+v, without %+v", dk, df)
	}
}

// insertRowLike returns an INSERT of a copy of the first lineitem row that
// matches where, with its values as arguments.
func insertRowLike(t *testing.T, eng *recycledb.Engine, where string) (string, []any) {
	t.Helper()
	res, err := eng.QueryCollect(context.Background(), "SELECT * FROM lineitem WHERE "+where+" LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1 {
		t.Fatalf("no lineitem row matches %s", where)
	}
	b := res.Batches[0]
	args := make([]any, len(b.Vecs))
	marks := make([]string, len(b.Vecs))
	for i, v := range b.Vecs {
		args[i], marks[i] = v.Datum(0), "?"
	}
	return "INSERT INTO lineitem VALUES (" + strings.Join(marks, ", ") + ")", args
}

// TestRootHitAfterDML: a write that changes a warm statement's result makes
// the next run equal ModeOff at the new snapshot. A stale root entry — one
// an in-flight producer admitted after the commit walk, tagged with the old
// epoch — is declined by the root probe without counting anything and then
// evicted by the full path's substitution rule.
func TestRootHitAfterDML(t *testing.T) {
	for _, kind := range []string{"insert", "delete"} {
		t.Run(kind, func(t *testing.T) {
			cat := rootHitCatalog()
			eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative, Parallelism: 1}, cat)
			s := prepare(t, eng, q6Text)
			var warm *recycledb.Result
			for i := 0; i < 3; i++ {
				warm = runStmt(t, s, q6Args()...)
			}
			roots := recycledb.ShapeRoots(eng)
			if warm.Stats.Reused != 1 || len(roots) != 1 {
				t.Fatalf("statement not warm: reused %d, %d root matches", warm.Stats.Reused, len(roots))
			}
			g := roots[0]
			old := eng.Recycler().Cached(g)
			if old == nil {
				t.Fatal("warm root has no cached result")
			}
			eng.Recycler().Release(old)

			ctx := context.Background()
			switch kind {
			case "insert":
				text, args := insertRowLike(t, eng, q6Pred)
				if _, err := eng.Exec(ctx, text, args...); err != nil {
					t.Fatal(err)
				}
			case "delete":
				res, err := eng.QueryCollect(ctx, "SELECT l_orderkey FROM lineitem WHERE "+q6Pred+" LIMIT 1")
				if err != nil || res.Rows() != 1 {
					t.Fatalf("no row to delete: %v", err)
				}
				if _, err := eng.Exec(ctx, "DELETE FROM lineitem WHERE l_orderkey = ?",
					res.Batches[0].Vecs[0].Datum(0)); err != nil {
					t.Fatal(err)
				}
			}
			want := offResult(t, cat, q6Text, q6Args()...)
			if canonDiff(canonResult(warm), canonResult(want)) == "" {
				t.Fatal("the write did not change the result; the test shows nothing")
			}
			if e := eng.Recycler().Cached(g); e != nil {
				eng.Recycler().Release(e)
				t.Fatal("the commit walk left the root's result cached")
			}
			// An in-flight producer at the old epoch admits after the walk.
			if !eng.Recycler().AdmitMat(g, core.Materialization{
				Batches: old.Batches, Rows: old.Rows, Size: old.Size, Cost: 1,
				HROverride: 1, Snap: old.Snap,
			}) {
				t.Fatal("stale admission rejected")
			}
			before := eng.Recycler().Stats()
			got := runStmt(t, s, q6Args()...)
			d := statsDelta(before, eng.Recycler().Stats())
			if d.Queries != 1 || d.Reuses != 0 || d.Invalidated != 1 {
				t.Fatalf("stale root: want one query, no reuse, one invalidation; counted %+v", d)
			}
			if e := eng.Recycler().Cached(g); e != nil {
				stale := e.Batches[0] == old.Batches[0]
				eng.Recycler().Release(e)
				if stale {
					t.Fatal("stale root entry still cached")
				}
			}
			sameResult(t, "first run after the write", want, got)
			for i := 0; i < 2; i++ {
				sameResult(t, "warm run after the write", want, runStmt(t, s, q6Args()...))
			}
		})
	}
}

// TestWarmRootHitAllocs is the root hit's allocation contract: a warm Q6
// through Stmt.Query plus Collect. Before root hits, every run cloned the
// plan, matched it and walked the rules, 244 allocations in all; the root
// hit skips those three and measures 76. The bound leaves room for noise,
// not for another per-statement allocation: the statement's record lives
// inside its rewrite result, and counting into it allocates nothing.
func TestWarmRootHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative, Parallelism: 1}, rootHitCatalog())
	s := prepare(t, eng, q6Text)
	args := q6Args()
	for i := 0; i < 3; i++ {
		runStmt(t, s, args...)
	}
	avg := testing.AllocsPerRun(200, func() { runStmt(t, s, args...) })
	t.Logf("warm Q6 root hit: %.1f allocs per run", avg)
	if avg > 80 {
		t.Fatalf("warm Q6 root hit allocates %.1f per run, want at most 80", avg)
	}
}
