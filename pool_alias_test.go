package recycledb_test

// Pooled blocking state never reaches the cache. Join arenas, group
// directories and sort arenas grow in pooled memory that goes back to the
// pool at Close and is handed to the next statement's operators; the
// recycler keeps only deep clones. This test stores an aggregate and a join
// result, churns the same pool classes with high-cardinality statements,
// then replays both and compares them with a recycling-off engine. A cached
// result that aliased pooled memory would come back overwritten. CI runs it
// under -race in the parallel-race-stress job.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"recycledb"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// aliasCatalog holds facts(id, grp, qty, tag): ids unique, 8Ki groups,
// and dims(grp, name): one row per group.
func aliasCatalog(rows int) *catalog.Catalog {
	const groups = 8 << 10
	cat := catalog.New()
	facts := catalog.NewTable("facts", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "grp", Typ: vector.Int64},
		{Name: "qty", Typ: vector.Int64},
		{Name: "tag", Typ: vector.String},
	})
	rng := rand.New(rand.NewSource(5))
	w := facts.BeginWrite()
	ap := w.Appender()
	for i := 0; i < rows; i++ {
		ap.Int64(0, int64(i))
		ap.Int64(1, rng.Int63n(groups))
		ap.Int64(2, 1+rng.Int63n(100))
		ap.String(3, fmt.Sprintf("t%03d", rng.Intn(500)))
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(facts)
	dims := catalog.NewTable("dims", catalog.Schema{
		{Name: "dgrp", Typ: vector.Int64},
		{Name: "name", Typ: vector.String},
	})
	w = dims.BeginWrite()
	ap = w.Appender()
	for g := 0; g < groups; g++ {
		ap.Int64(0, int64(g))
		ap.String(1, fmt.Sprintf("group-%05d", g))
		ap.FinishRow()
	}
	w.Commit()
	cat.AddTable(dims)
	return cat
}

// sortedRows renders a result's rows as strings, sorted, so results of
// engines that emit groups in different orders compare equal. The stored
// queries aggregate integers and strings only, so they compare exactly.
func sortedRows(t *testing.T, r *recycledb.Result) []string {
	t.Helper()
	var out []string
	for _, b := range r.Raw().Batches {
		for i := 0; i < b.Len(); i++ {
			var sb strings.Builder
			for _, d := range b.Row(i) {
				sb.WriteString(d.String())
				sb.WriteByte('|')
			}
			out = append(out, sb.String())
		}
	}
	slices.Sort(out)
	return out
}

func TestRecycledResultsSurvivePoolReuse(t *testing.T) {
	// Fewer rows and the aggregate no longer pays for its copy, so
	// speculation stops storing it.
	const rows = 48 << 10
	cat := aliasCatalog(rows)
	spec := newSmallVectorEngine(recycledb.Config{
		Mode:        recycledb.Speculative,
		CacheBytes:  256 << 20,
		Parallelism: 4,
	}, cat)
	off := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Off, Parallelism: 1}, cat)

	agg := func(maxID int64) *recycledb.Plan {
		return recycledb.Aggregate(
			recycledb.Select(recycledb.Scan("facts", "id", "grp", "qty", "tag"),
				recycledb.Lt(recycledb.Col("id"), recycledb.Int(maxID))),
			recycledb.GroupBy("grp"),
			recycledb.Sum(recycledb.Col("qty"), "total"),
			recycledb.CountAll("n"),
			recycledb.Min(recycledb.Col("tag"), "first_tag"),
			recycledb.Max(recycledb.Col("id"), "last_id"),
		)
	}
	// A few hundred groups probe a build over the facts: a large build,
	// a result small enough that speculation keeps it.
	join := func(maxID int64) *recycledb.Plan {
		return recycledb.Join(
			recycledb.Select(recycledb.Scan("dims", "dgrp", "name"),
				recycledb.Lt(recycledb.Col("name"), recycledb.Str("group-00600"))),
			recycledb.Select(recycledb.Scan("facts", "id", "grp", "qty"),
				recycledb.Lt(recycledb.Col("id"), recycledb.Int(maxID))),
			recycledb.Keys("dgrp"), recycledb.Keys("grp"))
	}
	// Churn: new groupings by the unique id, large join builds and full sorts,
	// each over a different range so nothing is reused, all drawing the
	// pool classes the stored results' operators released.
	churn := func(i int) *recycledb.Plan {
		hi := int64(rows - 97*i)
		switch i % 3 {
		case 0:
			return recycledb.Aggregate(
				recycledb.Select(recycledb.Scan("facts", "id", "grp", "qty", "tag"),
					recycledb.Lt(recycledb.Col("id"), recycledb.Int(hi))),
				recycledb.GroupBy("id", "tag"),
				recycledb.Sum(recycledb.Col("qty"), "total"),
				recycledb.Max(recycledb.Col("grp"), "g"))
		case 1:
			return join(hi)
		default:
			return recycledb.Sort(
				recycledb.Select(recycledb.Scan("facts", "id", "tag", "qty"),
					recycledb.Lt(recycledb.Col("id"), recycledb.Int(hi))),
				recycledb.Desc("tag"), recycledb.Asc("id"))
		}
	}

	ctx := context.Background()
	run := func(e *recycledb.Engine, q *recycledb.Plan) *recycledb.Result {
		t.Helper()
		r, err := e.ExecuteContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	stored := []struct {
		name string
		plan func() *recycledb.Plan
	}{
		{"aggregate", func() *recycledb.Plan { return agg(int64(rows) * 3 / 4) }},
		{"join", func() *recycledb.Plan { return join(int64(rows) / 2) }},
	}
	for _, s := range stored {
		if r := run(spec, s.plan()); r.Stats.Materialized == 0 {
			t.Fatalf("%s: the speculative engine stored nothing (stats %+v)", s.name, r.Stats)
		}
	}
	const churned = 24
	for i := 0; i < churned; i++ {
		run(spec, churn(i))
	}
	for _, s := range stored {
		replay := run(spec, s.plan())
		if replay.Stats.Reused == 0 {
			t.Fatalf("%s: replay recomputed instead of reusing the stored result (stats %+v)",
				s.name, replay.Stats)
		}
		got, want := sortedRows(t, replay), sortedRows(t, run(off, s.plan()))
		if len(got) != len(want) {
			t.Fatalf("%s: replay has %d rows, recycling off %d", s.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: replayed row %d = %s, recycling off gives %s", s.name, i, got[i], want[i])
			}
		}
	}
}
