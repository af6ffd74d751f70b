package core

import (
	"context"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// mkBatch builds a single-batch result of n rows.
func mkBatch(n int) []*vector.Batch {
	b := vector.NewBatch([]vector.Type{vector.Int64}, n)
	for i := 0; i < n; i++ {
		b.Vecs[0].AppendInt64(int64(i))
	}
	return []*vector.Batch{b}
}

// TestCacheInvariantsUnderRandomOps drives the recycler cache with a random
// admit/evict/flush/pin sequence and checks the structural invariants after
// every step: used == sum of entry sizes, used <= capacity, count == number
// of entries, and hR never negative.
func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	cfg.CacheBytes = 4096
	r := New(cfg)

	// A pool of graph nodes from distinct selections.
	var nodes []*Node
	for i := 0; i < 12; i++ {
		p := selPlan(t, cat, int64(i))
		r.BeginQuery()
		m := r.MatchInsert(p)
		r.AddRefs(p, m)
		g := m.ByNode[p].G
		r.UpdateStats(g, plan.Work(1+i)*1000, 10, int64(100+50*i))
		nodes = append(nodes, g)
	}
	rng := rand.New(rand.NewSource(99))
	var pinned []*Entry
	check := func(step int) {
		var used int64
		count := 0
		for _, e := range r.cache.entries() {
			used += e.Size
			count++
		}
		if used != r.cache.Used() {
			t.Fatalf("step %d: used %d != sum %d", step, r.cache.Used(), used)
		}
		if r.cache.Count() != count {
			t.Fatalf("step %d: count %d != entries %d", step, r.cache.Count(), count)
		}
		if r.cache.capacity > 0 && r.cache.Used() > r.cache.capacity {
			t.Fatalf("step %d: used %d exceeds capacity", step, r.cache.Used())
		}
		for _, n := range nodes {
			if hr := r.HR(n); hr < 0 {
				t.Fatalf("step %d: negative hr %v", step, hr)
			}
		}
	}
	for step := 0; step < 2000; step++ {
		n := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(6) {
		case 0, 1: // admit
			size := int64(50 + rng.Intn(1000))
			r.Admit(n, mkBatch(4), 4, size, plan.Work(1+rng.Intn(5))*1000, -1)
		case 2: // evict
			r.Evict(n)
		case 3: // pin / release
			if e := r.Cached(n); e != nil {
				if rng.Intn(2) == 0 {
					pinned = append(pinned, e)
				} else {
					r.Release(e)
				}
			}
		case 4: // flush
			if rng.Intn(10) == 0 {
				r.FlushCache()
			}
		case 5: // reference traffic
			p := selPlan(t, cat, int64(rng.Intn(12)))
			r.BeginQuery()
			m := r.MatchInsert(p)
			r.AddRefs(p, m)
		}
		check(step)
	}
	for _, e := range pinned {
		r.Release(e)
	}
	check(-1)
}

// TestHREvictAdmitSymmetry: admitting then evicting a result restores every
// descendant's importance factor (Eq. 3 and Eq. 4 are inverses when no
// references arrive in between).
func TestHREvictAdmitSymmetry(t *testing.T) {
	f := func(refs uint8) bool {
		cat := testCatalog()
		cfg := DefaultConfig()
		cfg.Alpha = 1
		r := New(cfg)
		p := selPlan(t, cat, 5)
		r.BeginQuery()
		m := r.MatchInsert(p)
		r.AddRefs(p, m)
		for i := 0; i < int(refs%16); i++ {
			pp := selPlan(t, cat, 5)
			r.BeginQuery()
			mm := r.MatchInsert(pp)
			r.AddRefs(pp, mm)
		}
		sel := m.ByNode[p].G
		scan := m.ByNode[p.Children[0]].G
		before := r.HR(scan)
		r.UpdateStats(sel, 1000, 4, 64)
		if !r.Admit(sel, mkBatch(4), 4, 64, 1000, 1) {
			return false
		}
		r.Evict(sel)
		return r.HR(scan) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphUnificationProperty: any two structurally identical random plans
// match to the same graph nodes; structurally different ones do not.
func TestGraphUnificationProperty(t *testing.T) {
	cat := testCatalog()
	build := func(seed int64, cols ...string) *plan.Node {
		rng := rand.New(rand.NewSource(seed))
		var n *plan.Node = plan.NewScan("t", cols...)
		depth := 1 + rng.Intn(3)
		for i := 0; i < depth; i++ {
			switch rng.Intn(3) {
			case 0:
				n = plan.NewSelect(n, expr.Lt(expr.C("a"), expr.Int(int64(rng.Intn(10)))))
			case 1:
				n = plan.NewProject(n,
					plan.P(expr.C("a"), "a"),
					plan.P(expr.Mul(expr.C("b"), expr.Flt(float64(rng.Intn(5)))), "b"))
			case 2:
				return plan.NewAggregate(n, []string{"a"},
					plan.A(plan.Sum, expr.C("b"), "s"))
			}
		}
		return n
	}
	f := func(seed int64) bool {
		r := New(DefaultConfig())
		p1 := build(seed, "a", "b")
		p2 := build(seed, "a", "b")
		// p3 applies the same operators over a different scan: above the
		// scan, its nodes' params equal p1's, only their children differ.
		p3 := build(seed, "a", "b", "c")
		for _, p := range []*plan.Node{p1, p2, p3} {
			if err := p.Resolve(cat); err != nil {
				return false
			}
		}
		m1 := r.MatchInsert(p1)
		m2 := r.MatchInsert(p2)
		if m2.Inserted != 0 {
			return false // identical plan must fully match
		}
		// The optimizer's read-only Match, applied bottom-up, finds
		// exactly what MatchInsert found for every subtree.
		if m1.ByNode[p1].G != m2.ByNode[p2].G ||
			!matchesBottomUp(r.Graph(), p1, m1) || !matchesBottomUp(r.Graph(), p2, m2) {
			return false
		}
		m3 := r.MatchInsert(p3)
		return m3.Inserted == p3.Count() && m3.ByNode[p3].G != m1.ByNode[p1].G
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBenefitMonotonicity: benefit grows with cost and shrinks with size.
func TestBenefitMonotonicity(t *testing.T) {
	f := func(c1, c2 uint32, s1, s2 uint32) bool {
		hr := 2.0
		costA := plan.Work(c1%1e6 + 1)
		costB := plan.Work(c2%1e6 + 1)
		sizeA := int64(s1%1e6 + 1)
		sizeB := int64(s2%1e6 + 1)
		if costA >= costB && sizeA <= sizeB {
			return BenefitValue(costA, hr, sizeA) >= BenefitValue(costB, hr, sizeB)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSizeGroupProperty: entries land in the group of their size's log2, and
// nearby sizes share groups.
func TestSizeGroupProperty(t *testing.T) {
	f := func(sz uint32) bool {
		s := int64(sz%1e7 + 1)
		g := sizeGroup(s)
		// Doubling the size moves up at most one group (plus rounding).
		g2 := sizeGroup(2 * s)
		return g2 == g+1 || g2 == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if sizeGroup(0) != 0 || sizeGroup(-5) != 0 {
		t.Fatal("non-positive sizes must map to group 0")
	}
}

// TestAgingNeverIncreasesHR: folding age can only shrink hr.
func TestAgingNeverIncreasesHR(t *testing.T) {
	f := func(h uint16, gap uint8) bool {
		n := &Node{hr: float64(h), ageSeq: 0}
		before := n.hr
		n.mu.Lock()
		foldAgeLocked(n, uint64(gap), 0.9)
		n.mu.Unlock()
		return n.hr <= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTrueCostNeverNegative: the DMD discount is clamped.
func TestTrueCostNeverNegative(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	r := New(cfg)
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	m := r.MatchInsert(p)
	sel := m.ByNode[p].G
	scan := m.ByNode[p.Children[0]].G
	// Pathological stats: the child "costs more" than the parent.
	r.UpdateStats(scan, 10000000, 10, 80)
	r.UpdateStats(sel, 1000, 5, 40)
	r.Admit(scan, mkBatch(4), 10, 80, 10000000, 1)
	if tc := r.TrueCost(sel); tc < 0 {
		t.Fatalf("true cost went negative: %v", tc)
	}
}

// TestConcurrentCacheAccounting hammers the cache from many
// goroutines with admissions, evictions, flushes, pins, and reference
// traffic while a monitor continuously observes the global byte accounting.
// The invariants: used bytes never exceed CacheBytes, never go negative,
// and once the storm quiesces the counters reconcile exactly — used equals
// the sum of entry sizes, the entry count matches, and admissions minus
// evictions equals the live entry count.
func TestConcurrentCacheAccounting(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.Alpha = 1
	cfg.CacheBytes = 1 << 14
	r := New(cfg)

	var nodes []*Node
	for i := 0; i < 48; i++ {
		p := selPlan(t, cat, int64(i))
		r.BeginQuery()
		m := r.MatchInsert(p)
		r.AddRefs(p, m)
		g := m.ByNode[p].G
		r.UpdateStats(g, plan.Work(1+i)*1000, 10, int64(100+40*i))
		nodes = append(nodes, g)
	}

	const workers = 8
	iters := 2500
	if testing.Short() {
		iters = 500
	}
	var badUsed atomic.Int64 // snapshot of a violating used value, 0 = none
	stop := make(chan struct{})
	var monWg sync.WaitGroup
	monWg.Add(1)
	go func() {
		defer monWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			used := r.cache.Used()
			if used < 0 || used > cfg.CacheBytes {
				badUsed.Store(used)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 13))
			var pinned []*Entry
			for i := 0; i < iters; i++ {
				n := nodes[rng.Intn(len(nodes))]
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // admit
					size := int64(50 + rng.Intn(2000))
					r.Admit(n, mkBatch(4), 4, size, plan.Work(1+rng.Intn(5))*1000, -1)
				case 4, 5: // evict
					r.Evict(n)
				case 6: // pin, sometimes holding across iterations
					if e := r.Cached(n); e != nil {
						if rng.Intn(2) == 0 && len(pinned) < 4 {
							pinned = append(pinned, e)
						} else {
							r.Release(e)
						}
					}
				case 7: // release a held pin
					if len(pinned) > 0 {
						r.Release(pinned[len(pinned)-1])
						pinned = pinned[:len(pinned)-1]
					}
				case 8: // flush
					if rng.Intn(8) == 0 {
						r.FlushCache()
					}
				case 9: // reference traffic (aging + hR churn)
					p := selPlan(t, cat, int64(rng.Intn(len(nodes))))
					r.BeginQuery()
					m := r.MatchInsert(p)
					r.AddRefs(p, m)
				}
			}
			for _, e := range pinned {
				r.Release(e)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	monWg.Wait()

	if v := badUsed.Load(); v != 0 {
		t.Fatalf("byte accounting out of bounds during run: used=%d capacity=%d", v, cfg.CacheBytes)
	}
	// Quiesced reconciliation.
	var sum int64
	entries := r.cache.entries()
	for _, e := range entries {
		sum += e.Size
		if e.Node.cached.Load() != e {
			t.Fatalf("entry for %s linked in cache but not published on its node", e.Node.Describe())
		}
	}
	if got := r.cache.Used(); got != sum {
		t.Fatalf("used %d != sum of entry sizes %d", got, sum)
	}
	if got := r.cache.Count(); got != len(entries) {
		t.Fatalf("count %d != entries %d", got, len(entries))
	}
	st := r.Stats()
	if st.CacheBytes < 0 || st.CacheBytes > cfg.CacheBytes {
		t.Fatalf("final cache bytes %d outside [0, %d]", st.CacheBytes, cfg.CacheBytes)
	}
	if st.Admissions-st.Evictions != int64(st.CacheEntries) {
		t.Fatalf("admissions %d - evictions %d != entries %d",
			st.Admissions, st.Evictions, st.CacheEntries)
	}
	if st.Admissions < 0 || st.Evictions < 0 || st.Rejected < 0 {
		t.Fatalf("negative counters: %+v", st)
	}
	// Importance factors survived the churn without going negative.
	for _, n := range nodes {
		if hr := r.HR(n); hr < 0 {
			t.Fatalf("negative hr %v on %s", hr, n.Describe())
		}
	}
}

// TestConcurrentInflightHandoff checks the K-identical-queries contract at
// the recycler level: one producer registers, K-1 waiters stall, and the
// stalled waiters obtain the producer's batches even when the cache refuses
// the result (direct handoff), with no waiter left hanging. A waiter that
// is scheduled too late to observe the registration legitimately falls back
// to recomputation, so the test requires sharing rather than unanimity.
func TestConcurrentInflightHandoff(t *testing.T) {
	cat := testCatalog()
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 // nothing fits: forces the handoff path
	r := New(cfg)
	p := selPlan(t, cat, 5)
	r.BeginQuery()
	g := r.MatchInsert(p).ByNode[p].G

	if !r.BeginInflight(g) {
		t.Fatal("producer registration failed")
	}
	const waiters = 8
	got := make(chan int64, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, ok := r.WaitInflightCtx(context.Background(), g, 5*time.Second)
			if !ok || e == nil {
				got <- -1
				return
			}
			got <- e.Rows
			r.Release(e)
		}()
	}
	// Give the waiters time to observe the registration before producing
	// (the handoff only reaches queries that stalled while the producer
	// ran; latecomers recompute, which is the correct fallback).
	time.Sleep(200 * time.Millisecond)
	// Produce: admission will reject (capacity 1), but the batches are
	// published to the waiters anyway.
	batches := mkBatch(4)
	if r.Admit(g, batches, 4, 999, 1000, -1) {
		t.Fatal("admission should fail with capacity 1")
	}
	r.FinishInflightShared(g, batches, 4, 999, nil)
	wg.Wait()
	close(got)
	handoffs := int64(0)
	for rows := range got {
		switch rows {
		case 4:
			handoffs++
		case -1: // latecomer fallback: recompute
		default:
			t.Fatalf("waiter got rows=%d, want 4 (handoff) or -1 (fallback)", rows)
		}
	}
	if handoffs == 0 {
		t.Fatal("no waiter received the direct handoff")
	}
	if got := r.Stats().InflightShared; got != handoffs {
		t.Fatalf("InflightShared = %d, want %d", got, handoffs)
	}
}

// matchesBottomUp reports whether Graph.Match, applied to root's subtrees
// bottom-up, returns for each the graph node and name mapping m recorded.
func matchesBottomUp(g *Graph, root *plan.Node, m *MatchResult) bool {
	ok := true
	var match func(n *plan.Node) *NodeMatch
	match = func(n *plan.Node) *NodeMatch {
		kids := make([]*NodeMatch, len(n.Children))
		for i, c := range n.Children {
			if kids[i] = match(c); kids[i] == nil {
				return nil
			}
		}
		nm := g.Match(n, kids)
		want := m.ByNode[n]
		if nm == nil || nm.G != want.G || !maps.Equal(nm.OutMap, want.OutMap) {
			ok = false
			return nil
		}
		return nm
	}
	return match(root) != nil && ok
}
