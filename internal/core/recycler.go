package core

import (
	"sort"
	"sync/atomic"
	"time"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Config tunes the recycler.
type Config struct {
	// CacheBytes bounds the recycler cache; <= 0 means unlimited.
	CacheBytes int64
	// Alpha is the per-query aging factor (Eq. 5); 1 disables aging.
	Alpha float64
	// MaxSpeculateBytes caps a speculative store's buffer; beyond it the
	// store cancels (buffering is not free in a pipelined engine).
	MaxSpeculateBytes int64
	// StallTimeout bounds how long a query waits for a concurrent
	// query's in-flight materialization before recomputing.
	StallTimeout time.Duration
	// Subsumption enables subsumption edges and derived reuse (§IV-A).
	Subsumption bool
}

// SpeculationHR is the constant importance factor used when deciding on
// never-before-seen results (the paper suggests 0.001, §III-D).
const SpeculationHR = 0.001

// MinProgress is the minimum producer progress before speculation
// extrapolates cost and size.
const MinProgress = 0.05

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		CacheBytes:        256 << 20,
		Alpha:             0.995,
		MaxSpeculateBytes: 64 << 20,
		StallTimeout:      2 * time.Second,
		Subsumption:       true,
	}
}

// Stats aggregates recycler activity counters.
type Stats struct {
	Queries          int64
	NodesMatched     int64
	NodesInserted    int64
	Reuses           int64
	SubsumptionReuse int64
	Materializations int64
	SpecCancels      int64
	SpecCommits      int64
	Stalls           int64
	StallReuses      int64
	// InflightShared counts stalled queries that received the producer's
	// result through the direct in-flight handoff (including results the
	// cache declined to admit).
	InflightShared int64
	// Invalidated counts cached results dropped because a base table
	// committed a write epoch they depend on (commit-walk and lazy
	// stale-tag evictions); DeltaExtended counts append epochs absorbed
	// by extending a cached result in place instead, over a total of
	// DeltaExtendRows appended result rows.
	Invalidated     int64
	DeltaExtended   int64
	DeltaExtendRows int64
	Admissions      int64
	Evictions       int64
	Rejected        int64
	GraphNodes      int
	CacheBytes      int64
	CacheEntries    int
	MatchTime       time.Duration
	InsertConflicts int64
}

// recStats is the internal, contention-free form of Stats: independent
// atomic counters bumped on the query hot path without any shared lock.
type recStats struct {
	queries          atomic.Int64
	nodesMatched     atomic.Int64
	nodesInserted    atomic.Int64
	reuses           atomic.Int64
	subsumptionReuse atomic.Int64
	materializations atomic.Int64
	specCancels      atomic.Int64
	specCommits      atomic.Int64
	stalls           atomic.Int64
	stallReuses      atomic.Int64
	inflightShared   atomic.Int64
	matchNanos       atomic.Int64
	invalidated      atomic.Int64
	deltaExtended    atomic.Int64
	deltaRows        atomic.Int64
}

// Recycler combines the recycler graph and the recycler cache and implements
// the decision procedures the rewriter and the store operators consult. It
// is safe for concurrent use by any number of queries; see the package
// comment for the lock architecture.
type Recycler struct {
	cfg   Config
	graph *Graph
	cache *Cache

	seq   atomic.Uint64 // query sequence for aging
	stats recStats
}

// New returns a recycler with the given configuration.
func New(cfg Config) *Recycler {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 2 * time.Second
	}
	return &Recycler{cfg: cfg, graph: NewGraph(), cache: NewCache(cfg.CacheBytes)}
}

// Config returns the active configuration.
func (r *Recycler) Config() Config { return r.cfg }

// Graph exposes the recycler graph (matching, tests, introspection).
func (r *Recycler) Graph() *Graph { return r.graph }

// BeginQuery advances the aging clock and returns the query sequence number.
func (r *Recycler) BeginQuery() uint64 {
	r.stats.queries.Add(1)
	return r.seq.Add(1)
}

func (r *Recycler) curSeq() uint64 { return r.seq.Load() }

// MatchInsert matches the query tree against the recycler graph, inserting
// missing nodes, and records matching-cost statistics.
func (r *Recycler) MatchInsert(root *plan.Node) *MatchResult {
	res := r.graph.MatchInsert(root)
	r.stats.nodesMatched.Add(int64(res.Matched))
	r.stats.nodesInserted.Add(int64(res.Inserted))
	r.stats.matchNanos.Add(res.Cost.Nanoseconds())
	return res
}

// AddRefs implements the importance-factor increment after a query finished
// matching/insertion (§III-C): every node whose result could have been used
// to answer the query — i.e. every exactly-matched node with no materialized
// matched ancestor — gains one reference.
func (r *Recycler) AddRefs(root *plan.Node, m *MatchResult) {
	seq := r.curSeq()
	var walk func(n *plan.Node, covered bool)
	walk = func(n *plan.Node, covered bool) {
		nm := m.ByNode[n]
		if nm == nil {
			return
		}
		if nm.Existed {
			if !covered {
				addRef(nm.G, seq, r.cfg.Alpha)
			}
			if nm.G.cached.Load() != nil {
				covered = true
			}
		}
		for _, c := range n.Children {
			walk(c, covered)
		}
	}
	walk(root, false)
}

// AddRefTo bumps a single node's importance factor. The proactive rules use
// it: each time a rule triggers and matches the proactive variant, the
// common parts of the proactive plan obtain a higher benefit score (§IV-B).
func (r *Recycler) AddRefTo(n *Node) {
	addRef(n, r.curSeq(), r.cfg.Alpha)
}

// HR returns the node's aged importance factor.
func (r *Recycler) HR(n *Node) float64 {
	return n.hrAt(r.curSeq(), r.cfg.Alpha)
}

// Benefit computes Eq. 1 for a node from its recorded statistics.
func (r *Recycler) Benefit(n *Node) float64 {
	seq := r.curSeq()
	n.mu.Lock()
	hr := n.hrAtLocked(seq, r.cfg.Alpha)
	est := n.estBytes
	n.mu.Unlock()
	return benefitOf(trueCost(n), hr, est)
}

// NodeStats returns a consistent snapshot of a node's execution statistics.
func (r *Recycler) NodeStats(n *Node) (cost plan.Work, known bool, card, estBytes int64) {
	n.mu.Lock()
	cost, known, card, estBytes = n.baseCost, n.costKnown, n.card, n.estBytes
	n.mu.Unlock()
	return
}

// Subsumers returns the nodes whose results subsume n's result, nearest
// first, as a snapshot taken under the graph lock (subsumption edges grow
// while concurrent queries insert siblings).
func (r *Recycler) Subsumers(n *Node) []*Node {
	var out []*Node
	r.graph.RLocked(func() { out = n.Subsumers() })
	return out
}

// StallTimeoutFor adapts the stall bound to the producer's expected cost: a
// waiter should not wait much longer than recomputing would take (the
// node's base cost at NanosPerWork), while slow, valuable producers deserve
// the full configured bound.
func (r *Recycler) StallTimeoutFor(n *Node) time.Duration {
	max := r.cfg.StallTimeout
	cost, known, _, _ := r.NodeStats(n)
	var est time.Duration
	if known {
		est = time.Duration(5 * float64(cost) * NanosPerWork)
	} else {
		est = max / 8
	}
	if est < 10*time.Millisecond {
		est = 10 * time.Millisecond
	}
	if est > max {
		est = max
	}
	return est
}

// TrueCost returns Eq. 2 for the node.
func (r *Recycler) TrueCost(n *Node) plan.Work {
	return trueCost(n)
}

// UpdateStats records post-execution measurements for a node: base cost
// (the work execution counted plus the base costs of reused descendants
// substituted in this plan), cardinality and result size estimate. The
// stored bcost is refreshed on every recomputation, as the paper prescribes.
func (r *Recycler) UpdateStats(n *Node, baseCost plan.Work, card, estBytes int64) {
	n.mu.Lock()
	n.baseCost = baseCost
	n.costKnown = true
	n.execCount++
	if card >= 0 {
		n.card = card
	}
	if estBytes > 0 {
		n.estBytes = estBytes
	}
	n.mu.Unlock()
}

// Cached returns the node's cache entry, pinned, or nil. The caller must
// Release the returned entry once done replaying it.
func (r *Recycler) Cached(n *Node) *Entry {
	e := r.peekCached(n)
	if e != nil {
		r.stats.reuses.Add(1)
	}
	return e
}

// Release unpins a cache entry. It is a no-op for unpinned entries, so the
// ephemeral entries the in-flight handoff fabricates release safely too.
func (r *Recycler) Release(e *Entry) {
	r.cache.mu.Lock()
	if e.pins > 0 {
		e.pins--
	}
	r.cache.mu.Unlock()
}

// WouldAdmit reports whether a result with the given benefit and size would
// currently be admitted (used by store-injection and speculation decisions).
// It mirrors AdmitMat without evicting anything; under concurrency the
// answer is advisory — the authoritative decision happens at AdmitMat.
func (r *Recycler) WouldAdmit(benefit float64, size int64) bool {
	c := r.cache
	if size <= 0 {
		return false
	}
	if c.fits(size) {
		return true
	}
	if size > c.capacity {
		return false
	}
	c.mu.Lock()
	_, ok := r.scanLocked(benefit, size)
	c.mu.Unlock()
	return ok
}

// Materialization describes a result offered to the cache: the batches and
// their measurements, plus the snapshot tag and delta-extension metadata
// the update path needs (see Entry).
type Materialization struct {
	Batches []*vector.Batch
	Rows    int64
	Size    int64
	Cost    plan.Work
	// HROverride < 0 means "use the node's aged hR"; speculation passes
	// its constant.
	HROverride float64
	Snap       map[string]TableSnap
	Plan       *plan.Node
	Extendable bool
}

// Admit offers a fully materialized result for node n to the cache with no
// snapshot tag (version-agnostic; the engine's store path uses AdmitMat).
func (r *Recycler) Admit(n *Node, batches []*vector.Batch, rows, size int64, cost plan.Work, hrOverride float64) bool {
	return r.AdmitMat(n, Materialization{
		Batches: batches, Rows: rows, Size: size, Cost: cost, HROverride: hrOverride,
	})
}

// AdmitMat offers a fully materialized result for node n to the cache,
// running admission/replacement (§III-E) and the hR updates of Eq. 3/4.
// Replacement is all-or-nothing: under one hold of the cache mutex the scan
// either finds a victim set that makes room, which is then evicted whole, or
// the result is rejected and the cache is untouched.
func (r *Recycler) AdmitMat(n *Node, m Materialization) bool {
	size := m.Size
	if size <= 0 {
		size = 1
	}
	c := r.cache
	if c.capacity > 0 && size > c.capacity {
		c.rejected.Add(1)
		return false
	}
	seq := r.curSeq()
	n.mu.Lock()
	// Never-measured nodes (speculation) get their first base-cost
	// sample from the store's input, priced over the rows it counted.
	if !n.costKnown && m.Cost > 0 {
		n.baseCost = m.Cost
		n.costKnown = true
	}
	hr := n.hrAtLocked(seq, r.cfg.Alpha)
	n.mu.Unlock()
	if m.HROverride >= 0 && hr < m.HROverride {
		hr = m.HROverride
	}
	e := &Entry{Node: n, Batches: m.Batches, Size: size, Rows: m.Rows,
		Snap: m.Snap, Plan: m.Plan, Extendable: m.Extendable}
	e.benefit = benefitOf(trueCost(n), hr, size)

	c.mu.Lock()
	if n.cached.Load() != nil {
		c.mu.Unlock()
		r.stats.materializations.Add(1)
		return true // a concurrent producer published first
	}
	if !c.fits(size) {
		end, ok := r.scanLocked(e.benefit, size)
		if !ok {
			c.mu.Unlock()
			c.rejected.Add(1)
			return false
		}
		r.evictPrefixLocked(sizeGroup(size), end, seq)
	}
	c.insertLocked(e)
	c.mu.Unlock()
	n.mu.Lock()
	n.estBytes = size
	n.card = m.Rows
	n.mu.Unlock()
	updateHROnAdd(n, seq, r.cfg.Alpha)
	r.stats.materializations.Add(1)
	return true
}

// scanLocked is the knapsack replacement scan (§III-E) for a result of the
// given size and benefit that does not fit: it refreshes the benefits of the
// result's size group, orders the group by ascending benefit, and selects
// unpinned entries from the front while the selected set's average benefit
// stays below the incoming benefit. It reports whether evicting the
// selection makes room, and the index just past the last selected entry:
// the victims are exactly the unpinned entries of the group before end.
// Nothing but the cached benefits and the group's order changes. c.mu held;
// Benefit takes only node mutexes.
func (r *Recycler) scanLocked(benefit float64, size int64) (end int, ok bool) {
	c := r.cache
	es := c.groups[sizeGroup(size)]
	for _, e := range es {
		e.benefit = r.Benefit(e.Node)
	}
	sort.SliceStable(es, func(a, b int) bool { return es[a].benefit < es[b].benefit })
	need := c.used.Load() + size - c.capacity
	var sum float64
	nv := 0
	for i, cand := range es {
		if cand.pins > 0 {
			continue
		}
		if (sum+cand.benefit)/float64(nv+1) >= benefit {
			break // the rest of the group is at least as good
		}
		sum += cand.benefit
		nv++
		if need -= cand.Size; need <= 0 {
			return i + 1, true
		}
	}
	return 0, false
}

// evictPrefixLocked evicts the unpinned entries among the first end of size
// group g — the victim set scanLocked just selected. c.mu held.
func (r *Recycler) evictPrefixLocked(g, end int, seq uint64) {
	c := r.cache
	es := c.groups[g]
	keep := 0
	for i, e := range es {
		if i < end && e.pins == 0 {
			r.dropLocked(e, seq)
			continue
		}
		es[keep] = e
		keep++
	}
	clear(es[keep:])
	c.groups[g] = es[:keep]
}

// dropLocked finishes the eviction of an entry already unlinked from its
// size group: the node is unpublished, the bytes return to the pool, and
// Eq. 4 hands the node's references back to its descendants. One eviction
// at a time, as Eq. 4 is defined: the references stop at the nearest
// still-cached descendants, which pass them on when their own turn comes.
// c.mu held.
func (r *Recycler) dropLocked(e *Entry, seq uint64) {
	c := r.cache
	e.Node.cached.Store(nil)
	c.used.Add(-e.Size)
	c.count.Add(-1)
	c.evictions.Add(1)
	updateHROnEvict(e.Node, seq, r.cfg.Alpha)
}

// evictLocked evicts one entry. c.mu held.
func (r *Recycler) evictLocked(e *Entry, seq uint64) {
	r.cache.unlinkLocked(e)
	r.dropLocked(e, seq)
}

// EvictEntry removes a specific cache entry if it is still the node's
// published one. The rewriter uses it to drop entries whose snapshot tag no
// longer matches the statement's epoch (lazy invalidation of results that
// were admitted by in-flight producers after the commit walk ran): the
// pointer comparison ensures a concurrently delta-extended replacement is
// not evicted by mistake.
func (r *Recycler) EvictEntry(n *Node, e *Entry) {
	if r.evictIf(n, e) {
		r.stats.invalidated.Add(1)
	}
}

// Evict removes a node's cached result (if any), applying Eq. 4.
func (r *Recycler) Evict(n *Node) { r.evictIf(n, nil) }

// evictIf evicts n's cached entry if it is want (nil: whatever is cached);
// it reports whether it evicted.
func (r *Recycler) evictIf(n *Node, want *Entry) bool {
	r.cache.mu.Lock()
	defer r.cache.mu.Unlock()
	e := n.cached.Load()
	if e == nil || (want != nil && e != want) {
		return false
	}
	r.evictLocked(e, r.curSeq())
	return true
}

// FlushCache evicts every unpinned result (the Fig. 6 invalidation
// protocol).
func (r *Recycler) FlushCache() {
	seq := r.curSeq()
	c := r.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	for g := range c.groups {
		r.evictPrefixLocked(g, len(c.groups[g]), seq)
	}
}

// Stats returns a snapshot of activity counters. Counters are read
// individually without a global lock, so a snapshot taken while queries run
// is approximate (each counter is itself exact).
func (r *Recycler) Stats() Stats {
	s := Stats{
		Queries:          r.stats.queries.Load(),
		NodesMatched:     r.stats.nodesMatched.Load(),
		NodesInserted:    r.stats.nodesInserted.Load(),
		Reuses:           r.stats.reuses.Load(),
		SubsumptionReuse: r.stats.subsumptionReuse.Load(),
		Materializations: r.stats.materializations.Load(),
		SpecCancels:      r.stats.specCancels.Load(),
		SpecCommits:      r.stats.specCommits.Load(),
		Stalls:           r.stats.stalls.Load(),
		StallReuses:      r.stats.stallReuses.Load(),
		InflightShared:   r.stats.inflightShared.Load(),
		Invalidated:      r.stats.invalidated.Load(),
		DeltaExtended:    r.stats.deltaExtended.Load(),
		DeltaExtendRows:  r.stats.deltaRows.Load(),
		MatchTime:        time.Duration(r.stats.matchNanos.Load()),
		Admissions:       r.cache.admissions.Load(),
		Evictions:        r.cache.evictions.Load(),
		Rejected:         r.cache.rejected.Load(),
		CacheBytes:       r.cache.used.Load(),
		CacheEntries:     int(r.cache.count.Load()),
	}
	s.GraphNodes = r.graph.Size()
	s.InsertConflicts = r.graph.Conflicts()
	return s
}

// CountSpecCancel bumps the speculation-cancel counter.
func (r *Recycler) CountSpecCancel() { r.stats.specCancels.Add(1) }

// CountSpecCommit bumps the speculation-commit counter.
func (r *Recycler) CountSpecCommit() { r.stats.specCommits.Add(1) }

// CountStall records a stall on an in-flight materialization.
func (r *Recycler) CountStall(reused bool) {
	r.stats.stalls.Add(1)
	if reused {
		r.stats.stallReuses.Add(1)
	}
}

// CountSubsumptionReuse records a reuse through a subsumption edge.
func (r *Recycler) CountSubsumptionReuse() { r.stats.subsumptionReuse.Add(1) }

// EstimateResultBytes estimates a node's result size from its measured
// cardinality and output types (used before a result was ever materialized;
// string widths use the paper's sampling idea, approximated by a fixed
// average width).
func EstimateResultBytes(n *Node, card int64) int64 {
	if card < 0 {
		return -1
	}
	var width int64
	for _, t := range n.OutTypes {
		w := t.Width()
		if t == vector.String {
			w += 16 // sampled average payload width
		}
		width += w
	}
	if width == 0 {
		width = 8
	}
	return card * width
}
