package core

import (
	"testing"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// matchTree matches a resolved plan bottom-up one level at a time, the way
// the optimizer does; nil when some node is not in the graph.
func matchTree(g *Graph, n *plan.Node) *NodeMatch {
	kids := make([]*NodeMatch, len(n.Children))
	for i, c := range n.Children {
		if kids[i] = matchTree(g, c); kids[i] == nil {
			return nil
		}
	}
	return g.Match(n, kids)
}

func TestProbeMissOnUnseenShape(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	res := r.MatchInsert(selPlan(t, cat, 5))
	// A different parameter is a different shape: the scan below still
	// matches, the select does not, and nothing is inserted.
	before := r.Graph().Size()
	p := selPlan(t, cat, 6)
	scan := r.Graph().Match(p.Children[0], nil)
	if scan == nil || scan.G != res.ByNode[findOp(res, plan.Scan)].G {
		t.Fatal("leaf did not match the inserted scan")
	}
	if nm := r.Graph().Match(p, []*NodeMatch{scan}); nm != nil {
		t.Fatal("matched a never-seen shape")
	}
	if got := r.Graph().Size(); got != before {
		t.Fatalf("match mutated the graph: %d -> %d nodes", before, got)
	}
}

func findOp(res *MatchResult, op plan.Op) *plan.Node {
	for n := range res.ByNode {
		if n.Op == op {
			return n
		}
	}
	return nil
}

func TestProbeReportsStatsCachedInflight(t *testing.T) {
	cat := testCatalog()
	r := New(DefaultConfig())
	p := selPlan(t, cat, 5)
	res := r.MatchInsert(p)
	g := res.ByNode[p].G

	nm := matchTree(r.Graph(), selPlan(t, cat, 5))
	if nm == nil || nm.G != g {
		t.Fatal("one-level match missed the inserted shape")
	}
	info := r.Probe(g, nil)
	if info.CostKnown || info.Cached || info.Inflight {
		t.Fatalf("fresh node reports state: %+v", info)
	}

	r.UpdateStats(g, 42000, 7, 128)
	if !r.BeginInflight(g) {
		t.Fatal("BeginInflight refused")
	}
	info = r.Probe(g, nil)
	if !info.CostKnown || info.BaseCost != 42000 || info.Card != 7 {
		t.Fatalf("measured stats not reported: %+v", info)
	}
	if !info.Inflight {
		t.Fatal("in-flight producer not reported")
	}
	r.FinishInflight(g)

	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Float64}, 1)
	if !r.Admit(g, []*vector.Batch{b}, 7, 128, 42000, -1) {
		t.Fatal("admit refused")
	}
	reusesBefore := r.Stats().Reuses
	info = r.Probe(g, nil)
	if !info.Cached || info.CachedRows != 7 || info.CachedBytes != 128 {
		t.Fatalf("cached result not reported: %+v", info)
	}
	if info.Inflight {
		t.Fatal("cached entry also reported in-flight")
	}
	if got := r.Stats().Reuses; got != reusesBefore {
		t.Fatalf("probe bumped the reuse counter: %d -> %d", reusesBefore, got)
	}
	if e := g.cached.Load(); e == nil || e.Pins() != 0 {
		t.Fatalf("probe left the entry pinned")
	}

	// A validator that rejects the entry turns Cached off.
	if r.Probe(g, func(*Entry) bool { return false }).Cached {
		t.Fatal("rejected entry still reported cached")
	}
}

func TestEntrySnapValid(t *testing.T) {
	e := &Entry{Snap: map[string]TableSnap{"t": {Ver: 3}}}
	live := func(string) (int64, bool) { return 0, false }

	if v, s := EntrySnapValid(&Entry{}, nil, 0, live); !v || s {
		t.Fatalf("untagged entry: valid=%v stale=%v", v, s)
	}
	if v, s := EntrySnapValid(e, map[string]TableSnap{"t": {Ver: 3}}, 0, live); !v || s {
		t.Fatalf("matching tag: valid=%v stale=%v", v, s)
	}
	if v, s := EntrySnapValid(e, map[string]TableSnap{"t": {Ver: 5}}, 0, live); v || !s {
		t.Fatalf("older tag: valid=%v stale=%v", v, s)
	}
	if v, s := EntrySnapValid(e, map[string]TableSnap{"t": {Ver: 2}}, 0, live); v || s {
		t.Fatalf("newer tag: valid=%v stale=%v (fresher entries are not stale)", v, s)
	}
	// Table outside the capture falls back to live; unknown tables are stale.
	if v, s := EntrySnapValid(e, map[string]TableSnap{"u": {Ver: 1}}, 0, live); v || !s {
		t.Fatalf("unknown live table: valid=%v stale=%v", v, s)
	}
	liveAt := func(ver int64) func(string) (int64, bool) {
		return func(string) (int64, bool) { return ver, true }
	}
	if v, _ := EntrySnapValid(e, map[string]TableSnap{"u": {Ver: 1}}, 0, liveAt(3)); !v {
		t.Fatal("live version match rejected")
	}
	if v, s := EntrySnapValid(e, map[string]TableSnap{"u": {Ver: 1}}, 0, liveAt(4)); v || !s {
		t.Fatalf("live version moved on: valid=%v stale=%v", v, s)
	}
}
