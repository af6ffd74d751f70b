package rewrite

import (
	"testing"

	"recycledb/internal/core"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// admitSnap admits a tagged one-row result for plan p's root graph node.
func admitSnap(t *testing.T, rw *Rewriter, p *plan.Node, snap map[string]core.TableSnap) *core.Node {
	t.Helper()
	g := rw.Rec.MatchInsert(p).ByNode[p].G
	b := vector.NewBatch([]vector.Type{vector.Int64}, 1)
	b.Vecs[0].AppendInt64(1)
	if !rw.Rec.AdmitMat(g, core.Materialization{
		Batches: []*vector.Batch{b}, Rows: 1, Size: 24,
		Cost: 1000, HROverride: 1, Snap: snap,
	}) {
		t.Fatal("admission failed")
	}
	return g
}

// TestCachedValidKeepsFresherEntry: a statement that captured an older
// epoch must skip — but not evict — an entry tagged with a newer epoch
// (e.g. one a concurrent commit delta-extended); only entries older than
// the statement's epoch are lazily invalidated.
func TestCachedValidKeepsFresherEntry(t *testing.T) {
	rw, cat := fixture(t, History)
	p := plan.NewSelect(plan.NewScan("t", "k", "v"), expr.Gt(expr.C("v"), expr.Flt(10)))
	if err := p.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	g := admitSnap(t, rw, p, map[string]core.TableSnap{"t": {Ver: 5, Rows: 5000}})

	// Statement captured epoch 4: the entry is fresher, not stale.
	rw.SnapVers = map[string]core.TableSnap{"t": {Ver: 4, Rows: 4990}}
	if e := rw.cachedValid(g); e != nil {
		t.Fatal("fresher entry substituted into an older-epoch statement")
	}
	if rw.Rec.Cached(g) == nil {
		t.Fatal("fresher entry evicted by an older-epoch statement")
	}
	rw.Rec.Release(rw.Rec.Cached(g))

	// Statement captured epoch 6: now the entry is stale and must go.
	rw.SnapVers = map[string]core.TableSnap{"t": {Ver: 6, Rows: 5100}}
	if e := rw.cachedValid(g); e != nil {
		t.Fatal("stale entry substituted")
	}
	if rw.Rec.Cached(g) != nil {
		t.Fatal("stale entry not lazily evicted")
	}
	if rw.Rec.Stats().Invalidated == 0 {
		t.Fatal("lazy eviction not counted as invalidation")
	}
}

// TestCachedValidMatchingEpoch: a tag equal to the captured epoch is
// substituted normally.
func TestCachedValidMatchingEpoch(t *testing.T) {
	rw, cat := fixture(t, History)
	p := plan.NewSelect(plan.NewScan("t", "k", "v"), expr.Gt(expr.C("v"), expr.Flt(20)))
	if err := p.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	g := admitSnap(t, rw, p, map[string]core.TableSnap{"t": {Ver: 1, Rows: 5000}})
	rw.SnapVers = map[string]core.TableSnap{"t": {Ver: 1, Rows: 5000}}
	e := rw.cachedValid(g)
	if e == nil {
		t.Fatal("matching-epoch entry not substituted")
	}
	rw.Rec.Release(e)
}

// TestRejectedEntryCountsNoReuse: an entry the substitution rule pins and
// then rejects — tagged newer than the statement's epoch, or stale — is
// not a reuse.
func TestRejectedEntryCountsNoReuse(t *testing.T) {
	rw, cat := fixture(t, History)
	p := plan.NewSelect(plan.NewScan("t", "k", "v"), expr.Gt(expr.C("v"), expr.Flt(30)))
	if err := p.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	admitSnap(t, rw, p, map[string]core.TableSnap{"t": {Ver: 5, Rows: 5000}})
	for _, ver := range []int64{4, 6} { // the entry is newer, then stale
		rw.SnapVers = map[string]core.TableSnap{"t": {Ver: ver, Rows: 5000}}
		r, err := rw.Rewrite(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		rw.Abort(r)
		if r.Record.Reused != 0 || rw.Rec.Stats().Reuses != 0 {
			t.Fatalf("epoch %d: rejected entry counted (planned %d, recycler %d)", ver, r.Record.Reused, rw.Rec.Stats().Reuses)
		}
	}
}
