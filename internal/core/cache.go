package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Entry is a cached materialized result. Pins prevent policy eviction
// while a running query replays the result.
//
// Node, Batches, Size, Rows, Snap, Plan and Extendable are immutable: the
// append delta extension never mutates an entry in place, it swaps in a
// fresh Entry (so concurrent replays of the old epoch stay consistent).
// pins and benefit are guarded by the cache mutex (Cache.mu).
type Entry struct {
	Node    *Node
	Batches []*vector.Batch
	Size    int64
	Rows    int64

	// Snap tags the result with the per-table data versions (and row
	// watermarks) it was computed at; plan.LineageAll maps the catalog's
	// global data version. nil means version-agnostic (results admitted
	// outside the engine's snapshot machinery, e.g. unit tests).
	Snap map[string]TableSnap
	// Plan is a resolved clone of the producing subplan, kept only for
	// extendable entries so the delta extension can re-run it over newly
	// appended rows.
	Plan *plan.Node
	// Extendable marks entries whose subplan is a row-local chain
	// (scan/select/project over a single base table): a pure append to
	// that table extends the cached result instead of evicting it.
	Extendable bool

	pins int
	// benefit as of the last policy evaluation. The paper re-positions
	// entries within their group whenever benefits change; we refresh
	// benefits lazily at policy-evaluation time, which visits the same
	// group scan order.
	benefit float64
}

// TableSnap is one table's coordinates in a snapshot tag: the data version
// and the physical row watermark the result was computed at.
type TableSnap struct {
	Ver  int64
	Rows int64
}

// Pins returns the current pin count (for tests; callers must be
// single-threaded with respect to the cache).
func (e *Entry) Pins() int { return e.pins }

// Cache is the recycler cache (§III-E): a finite in-memory store of
// materialized results managed as a knapsack via Dantzig's greedy algorithm,
// with results classified into logarithmic size groups and scanned in
// increasing benefit order.
//
// One mutex guards membership: the size groups, the publication of every
// Node.cached pointer, and the pins and benefit of every entry. Admission
// decides and evicts under a single hold of it, so replacement is
// all-or-nothing and bytes cached never exceed the capacity. used and count
// are written only under mu; they are atomics so Stats and WouldAdmit's
// free-space fast path read them without it.
type Cache struct {
	capacity int64 // <= 0 means unlimited

	mu sync.Mutex
	// groups[g] holds the entries of size group g (bits.Len64 of the size,
	// so at most 64).
	groups [65][]*Entry // guarded by mu

	used  atomic.Int64
	count atomic.Int64

	admissions atomic.Int64
	evictions  atomic.Int64
	rejected   atomic.Int64
}

// NewCache returns a cache bounded to capacity bytes; capacity <= 0 means
// unlimited.
func NewCache(capacity int64) *Cache { return &Cache{capacity: capacity} }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used.Load() }

// Count returns the number of cached results.
func (c *Cache) Count() int { return int(c.count.Load()) }

// fits reports whether size more bytes fit without replacement.
func (c *Cache) fits(size int64) bool {
	return c.capacity <= 0 || c.used.Load()+size <= c.capacity
}

// sizeGroup classifies a result by the logarithm of its size (§III-E).
func sizeGroup(size int64) int {
	if size <= 0 {
		return 0
	}
	return bits.Len64(uint64(size))
}

// unlinkLocked removes e from its size group (c.mu held); unpublishing and
// accounting are the caller's (Recycler.dropLocked).
func (c *Cache) unlinkLocked(e *Entry) {
	g := sizeGroup(e.Size)
	es := c.groups[g]
	for i, v := range es {
		if v == e {
			c.groups[g] = append(es[:i], es[i+1:]...)
			return
		}
	}
}

// insertLocked links and publishes e (c.mu held; the caller has checked
// that it fits).
func (c *Cache) insertLocked(e *Entry) {
	g := sizeGroup(e.Size)
	c.groups[g] = append(c.groups[g], e)
	e.Node.cached.Store(e)
	c.used.Add(e.Size)
	c.count.Add(1)
	c.admissions.Add(1)
}

// entries returns all cached entries (for tests and introspection) in
// size-group order.
func (c *Cache) entries() []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Entry
	for g := range c.groups {
		out = append(out, c.groups[g]...)
	}
	return out
}
