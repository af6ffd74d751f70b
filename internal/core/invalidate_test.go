package core

import (
	"testing"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// admitTagged admits a one-batch result for g tagged at the given epoch of
// table "t", optionally extendable with the producing subplan.
func admitTagged(t *testing.T, r *Recycler, g *Node, subplan *plan.Node, ver, rows int64) {
	t.Helper()
	ok := r.AdmitMat(g, Materialization{
		Batches: mkBatch(4), Rows: 4, Size: 64, Cost: 1000,
		HROverride: 1,
		Snap:       map[string]TableSnap{"t": {Ver: ver, Rows: rows}},
		Plan:       subplan,
		Extendable: subplan != nil,
	})
	if !ok {
		t.Fatal("admission failed")
	}
}

func TestInvalidateTableEvictsDependents(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	if len(g.Tables) != 1 || g.Tables[0] != "t" {
		t.Fatalf("lineage = %v", g.Tables)
	}
	admitTagged(t, r, g, nil, 1, 10)

	// A write to an unrelated table leaves the entry alone.
	if ev, ex := r.InvalidateTable("other", true, 1, 5, nil); ev != 0 || ex != 0 {
		t.Fatalf("unrelated write touched %d/%d entries", ev, ex)
	}
	if r.Cached(g) == nil {
		t.Fatal("entry gone after unrelated write")
	}
	r.Release(g.cached.Load())

	// A non-append epoch on t evicts (no extender offered).
	usedBefore := r.cache.Used()
	if ev, _ := r.InvalidateTable("t", false, 2, 10, nil); ev != 1 {
		t.Fatal("delete epoch did not evict the dependent")
	}
	if r.Cached(g) != nil {
		t.Fatal("stale entry still served")
	}
	if got := r.cache.Used(); got != usedBefore-64 {
		t.Fatalf("bytes not refunded: %d -> %d", usedBefore, got)
	}
	if r.Stats().Invalidated != 1 {
		t.Fatalf("Invalidated = %d", r.Stats().Invalidated)
	}
}

func TestInvalidateTableDeltaExtends(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	admitTagged(t, r, g, p.Clone(), 1, 10)

	var gotLo, gotHi int64
	extend := func(e *Entry, table string, lo, hi int64) ([]*vector.Batch, int64, int64, bool) {
		gotLo, gotHi = lo, hi
		return mkBatch(2), 2, 32, true
	}
	ev, ex := r.InvalidateTable("t", true, 2, 15, extend)
	if ev != 0 || ex != 1 {
		t.Fatalf("evicted=%d extended=%d", ev, ex)
	}
	if gotLo != 10 || gotHi != 15 {
		t.Fatalf("extension window [%d, %d)", gotLo, gotHi)
	}
	e := r.Cached(g)
	if e == nil {
		t.Fatal("extended entry missing")
	}
	defer r.Release(e)
	if e.Rows != 6 || e.Size != 96 || len(e.Batches) != 2 {
		t.Fatalf("extended entry rows=%d size=%d batches=%d", e.Rows, e.Size, len(e.Batches))
	}
	if e.Snap["t"] != (TableSnap{Ver: 2, Rows: 15}) {
		t.Fatalf("snapshot tag not advanced: %+v", e.Snap)
	}
	if got := r.cache.Used(); got != 96 {
		t.Fatalf("used = %d after extension", got)
	}
	st := r.Stats()
	if st.DeltaExtended != 1 || st.DeltaExtendRows != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidateTableExtensionFailureEvicts(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	admitTagged(t, r, g, p.Clone(), 1, 10)
	extend := func(e *Entry, table string, lo, hi int64) ([]*vector.Batch, int64, int64, bool) {
		return nil, 0, 0, false
	}
	if ev, ex := r.InvalidateTable("t", true, 2, 15, extend); ev != 1 || ex != 0 {
		t.Fatalf("evicted=%d extended=%d", ev, ex)
	}
	if r.Cached(g) != nil {
		t.Fatal("failed extension left a stale entry")
	}
	if r.cache.Used() != 0 {
		t.Fatalf("used = %d", r.cache.Used())
	}
}

// TestInvalidateTableNoExtensionAcrossMissedEpochs: an entry whose tag is
// older than the immediately preceding epoch must be evicted, not extended
// — it may have been admitted around a delete epoch it never observed, and
// extending it would resurrect the deleted rows under a current tag.
func TestInvalidateTableNoExtensionAcrossMissedEpochs(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	// Entry tagged ver 1 while the table is already committing ver 3
	// (ver 2 — possibly a delete — happened without the entry cached).
	admitTagged(t, r, g, p.Clone(), 1, 10)
	extend := func(e *Entry, table string, lo, hi int64) ([]*vector.Batch, int64, int64, bool) {
		t.Error("extension ran across a missed epoch")
		return nil, 0, 0, false
	}
	if ev, ex := r.InvalidateTable("t", true, 3, 15, extend); ev != 1 || ex != 0 {
		t.Fatalf("evicted=%d extended=%d", ev, ex)
	}
	if r.Cached(g) != nil {
		t.Fatal("entry with a version gap survived an append epoch")
	}
}

func TestInvalidateTableUnknownLineage(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	// Simulate a table-function node with unknown reads.
	g.Tables = []string{plan.LineageAll}
	admitTagged(t, r, g, nil, 1, 10)
	if ev, _ := r.InvalidateTable("whatever", true, 1, 5, nil); ev != 1 {
		t.Fatal("unknown-lineage entry survived a write")
	}
}

func TestEvictEntryIgnoresReplacedEntry(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	g := r.MatchInsert(p).ByNode[p].G
	admitTagged(t, r, g, p.Clone(), 1, 10)
	old := g.cached.Load()
	// Replace through the extension path.
	r.InvalidateTable("t", true, 2, 12, func(e *Entry, table string, lo, hi int64) ([]*vector.Batch, int64, int64, bool) {
		return nil, 0, 0, true
	})
	// The stale-handle eviction must be a no-op for the replaced pointer.
	r.EvictEntry(g, old)
	if r.Cached(g) == nil {
		t.Fatal("EvictEntry removed a newer entry via a stale handle")
	}
	r.Release(g.cached.Load())
}
