package recycledb_test

// Golden equivalence under updates: after every committed write epoch —
// appends (which delta-extend cached selection subtrees), deletes (which
// invalidate), and table-function base-table writes — every recycling mode
// and the monet-style baseline must produce exactly what a no-recycling
// engine recomputes from scratch. This is the "no stale reads" acceptance
// criterion: a recycler that serves one stale batch fails here.

import (
	"context"
	"math/rand"
	"testing"

	"recycledb"

	"recycledb/internal/harness"
	"recycledb/internal/monet"
	"recycledb/internal/workload"
)

func TestGoldenEquivalenceUnderDML(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 3000, 1)
	queries := goldenQueries()

	// All engines share the catalog: writes through any path invalidate
	// every engine's cache via the commit listeners.
	engines := make(map[string]*recycledb.Engine)
	for _, mode := range harness.Modes {
		engines[mode.String()] = recycledb.NewWithCatalog(recycledb.Config{Mode: mode}, cat)
	}
	meng := monet.New(cat, monet.NewRecycler(0))

	rng := rand.New(rand.NewSource(99))
	appendLineitem := harness.SyntheticAppender(cat, "lineitem", 40)
	appendOrders := harness.SyntheticAppender(cat, "orders", 20)
	appendSky := harness.SyntheticAppender(cat, "PhotoPrimary", 25)
	deleteLineitem := harness.SyntheticDeleter(cat, "lineitem", 30)

	// Round 0 runs on the loaded data (and warms every cache); each later
	// round first commits a batch of writes, then re-verifies everything.
	writes := []struct {
		name string
		ops  []workload.WriteFunc
	}{
		{"initial", nil},
		{"append-only", []workload.WriteFunc{appendLineitem, appendLineitem, appendOrders}},
		{"deletes", []workload.WriteFunc{deleteLineitem}},
		{"mixed", []workload.WriteFunc{appendLineitem, deleteLineitem, appendOrders, appendSky}},
	}
	for _, round := range writes {
		for _, op := range round.ops {
			if err := op(0, rng); err != nil {
				t.Fatalf("%s: write: %v", round.name, err)
			}
		}
		// Ground truth for this epoch: the recorded digests.
		want := goldenSection(t, "dml/"+round.name, cat, queries)
		for name, eng := range engines {
			for i, q := range queries {
				r, err := eng.ExecuteContext(context.Background(), q.Plan)
				if err != nil {
					t.Fatalf("%s: mode %s %s: %v", round.name, name, q.Label, err)
				}
				if d := want[i].diff(canonResult(r)); d != "" {
					t.Fatalf("%s: mode %s %s: stale or wrong result: %s",
						round.name, name, q.Label, d)
				}
			}
		}
		for i, q := range queries {
			r, err := meng.Execute(q.Plan)
			if err != nil {
				t.Fatalf("%s: monet %s: %v", round.name, q.Label, err)
			}
			if d := want[i].diff(canonBatches(r.Schema, r.Batches)); d != "" {
				t.Fatalf("%s: monet %s: stale or wrong result: %s", round.name, q.Label, d)
			}
		}
	}

	// The delta-extension machinery must have actually fired across the
	// append rounds in at least one caching mode, or this test silently
	// stopped covering it.
	var extended, invalidated int64
	for _, eng := range engines {
		st := eng.Recycler().Stats()
		extended += st.DeltaExtended
		invalidated += st.Invalidated
	}
	if extended == 0 {
		t.Error("no delta extensions across append rounds")
	}
	if invalidated == 0 {
		t.Error("no invalidations across delete rounds")
	}
}
