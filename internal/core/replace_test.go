package core

import (
	"hash/fnv"
	"math"
	"testing"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// TestReplacementIsGlobalAndAllOrNothing pins the §III-E replacement scan:
// victims are the globally lowest-benefit unpinned entries of the incoming
// result's size group, taken in ascending order while their running average
// stays below the incoming benefit, and an admission that cannot be
// satisfied leaves the cache exactly as it was.
//
// The cache used to be split into 16 lock stripes by plan signature, with
// the scan starting in the incoming result's home stripe — so a mediocre
// entry sharing that stripe was evicted before the globally worst ones. The
// fixture reproduces that layout (oldStripe): the incoming result shares its
// former stripe with the third-worst entry, and the two worst live elsewhere.
func TestReplacementIsGlobalAndAllOrNothing(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1 // no aging: benefits are exactly cost / size
	cfg.CacheBytes = 8 * 40
	r := New(cfg)

	// oldStripe is the stripe a select over one column lived in: the
	// striped cache keyed on the node's column signature, one FNV-chosen
	// bit per column read, mixed down to 16 stripes.
	oldStripe := func(col string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(col))
		sig := uint64(1) << (h.Sum64() % 64)
		return (sig * 0x9E3779B97F4A7C15) >> 32 & 15
	}
	// node returns the graph node of select(pred) over scan(t), seen twice
	// (hR = 1).
	var pool []*Node
	node := func(pred expr.Expr) *Node {
		var g *Node
		for range 2 {
			p := mustResolve(t, cat, plan.NewSelect(plan.NewScan("t", "a", "b"), pred))
			r.BeginQuery()
			m := r.MatchInsert(p)
			r.AddRefs(p, m)
			g = m.ByNode[p].G
		}
		pool = append(pool, g)
		return g
	}
	// x (incoming) and mid both filter on a and so share a former stripe;
	// everything else filters on b and lived in another.
	if oldStripe("a") == oldStripe("b") {
		t.Fatal("fixture: a and b share a former stripe")
	}
	x, mid := node(expr.Lt(expr.C("a"), expr.Int(0))), node(expr.Lt(expr.C("a"), expr.Int(1)))
	var rest []*Node
	for i := range 10 {
		rest = append(rest, node(expr.Gt(expr.C("b"), expr.Flt(float64(i)))))
	}
	y, z, w := rest[7], rest[8], rest[9]
	// e[i] has benefit (i+1)·k with k = 1ms/40B; mid is the third worst.
	e := []*Node{rest[0], rest[1], mid, rest[2], rest[3], rest[4], rest[5], rest[6]}
	const k plan.Work = 1000
	for i, n := range e {
		cost := plan.Work(i+1) * k
		r.UpdateStats(n, cost, 5, 40)
		if !r.Admit(n, mkBatch(1), 1, 40, cost, -1) {
			t.Fatalf("filling: entry %d rejected", i)
		}
	}
	// offer admits n with the given size and a benefit of units·k.
	offer := func(n *Node, size int64, units float64) bool {
		cost := plan.Work(units * float64(size) / 40 * float64(k))
		r.UpdateStats(n, cost, 5, size)
		return r.Admit(n, mkBatch(1), 1, size, cost, -1)
	}
	cached := func(n *Node) bool { return n.cached.Load() != nil }
	type state struct {
		used    int64
		count   int
		entries map[*Node]*Entry
		hr      map[*Node]uint64
	}
	snapshot := func() state {
		s := state{used: r.cache.Used(), count: r.cache.Count(),
			entries: make(map[*Node]*Entry), hr: make(map[*Node]uint64)}
		for _, n := range append(pool, pool[0].Children[0]) {
			s.entries[n] = n.cached.Load()
			s.hr[n] = math.Float64bits(r.HR(n))
		}
		return s
	}
	unchanged := func(what string, before state) {
		t.Helper()
		after := snapshot()
		if after.used != before.used || after.count != before.count {
			t.Fatalf("%s: used/count %d/%d -> %d/%d", what, before.used, before.count, after.used, after.count)
		}
		for n, en := range before.entries {
			if after.entries[n] != en {
				t.Fatalf("%s: cached entry of %s changed", what, n.Describe())
			}
			if after.hr[n] != before.hr[n] {
				t.Fatalf("%s: hR of %s changed", what, n.Describe())
			}
		}
	}

	// A 60-byte result of benefit 5.5k needs two 40-byte victims. The two
	// globally worst (1k, 2k; average 1.5k) go — not mid (3k), which shared
	// x's former stripe.
	if !offer(x, 60, 5.5) {
		t.Fatal("x rejected")
	}
	for i, n := range e {
		if got, want := cached(n), i >= 2; got != want {
			t.Fatalf("after admitting x: entry %d (benefit %dk) cached = %v, want %v", i, i+1, got, want)
		}
	}
	if !cached(x) || r.cache.Used() != 300 || r.cache.Count() != 7 {
		t.Fatalf("after admitting x: cached=%v used=%d count=%d, want true 300 7",
			cached(x), r.cache.Used(), r.cache.Count())
	}

	// y (63 bytes, 3.2k) needs two victims too. The first candidate (3k)
	// qualifies, the second lifts the running average to 3.5k: rejected,
	// and the first candidate is not lost to the failed admission.
	before := snapshot()
	rejected := r.Stats().Rejected
	if offer(y, 63, 3.2) {
		t.Fatal("y admitted over a victim set of higher average benefit")
	}
	unchanged("rejecting y", before)
	if got := r.Stats().Rejected; got != rejected+1 {
		t.Fatalf("Rejected = %d, want %d", got, rejected+1)
	}

	// A pinned entry is skipped: with the worst entry (3k) pinned, z (40
	// bytes, 4.5k) takes the place of the next one (4k).
	pin := r.Cached(e[2])
	if !offer(z, 40, 4.5) {
		t.Fatal("z rejected")
	}
	if !cached(e[2]) || cached(e[3]) || !cached(z) {
		t.Fatalf("after admitting z: pinned=%v next=%v z=%v, want true false true",
			cached(e[2]), cached(e[3]), cached(z))
	}
	// ... and not counted: w (63 bytes, 4.6k) needs two victims. The
	// unpinned candidates z (4.5k) and e[4] (5k) average 4.75k, so w is
	// rejected; averaging the pinned 3k in would have admitted it.
	before = snapshot()
	if offer(w, 63, 4.6) {
		t.Fatal("w admitted: the pinned entry's benefit was counted into the average")
	}
	unchanged("rejecting w", before)
	r.Release(pin)
}
