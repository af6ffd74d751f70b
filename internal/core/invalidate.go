package core

import (
	"maps"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Lineage-based cache invalidation (beyond the paper, which assumes static
// tables; cf. Dursun et al., SIGMOD 2017): every cached entry is tagged
// with the snapshot it was computed at, and a committed write epoch walks
// the cache touching only the dependents of the written table.
// Pure append commits do not evict entries over append-only subplans —
// selection/projection chains are *delta-extended* by running the cached
// subplan over just the appended rows and appending to the cached result,
// so hit rates survive insert-heavy workloads. Everything else (join/agg
// dependents, delete epochs, unknown-lineage table functions) is evicted.

// ExtendFunc runs an extendable entry's subplan over the appended row
// window [lo, hi) of table and returns the delta batches (deep-owned). ok
// reports success; on false the entry is evicted instead.
type ExtendFunc func(e *Entry, table string, lo, hi int64) (delta []*vector.Batch, rows, bytes int64, ok bool)

// InvalidateTable reacts to one committed write epoch on table (now at
// data version ver with row watermark rows): dependents of the table are
// delta-extended when the epoch was append-only and the entry allows it,
// and evicted otherwise. It returns the number of entries evicted and
// extended. The caller serializes invalidations of one table with its next
// write (the catalog runs commit listeners under the table's writer lock),
// so an extension never races a second epoch of the same table.
func (r *Recycler) InvalidateTable(table string, appendOnly bool, ver, rows int64, extend ExtendFunc) (evicted, extended int) {
	c := r.cache
	if c.count.Load() == 0 {
		return 0, 0
	}
	// The walk is O(cached entries) per commit: there is no per-table
	// index to narrow the sweep. At the cache sizes the policy sustains
	// (hundreds of entries) this is far cheaper than the eviction storm it
	// replaces; a per-table dependent index is the upgrade path if commit
	// rates ever make the sweep show up in profiles.
	var victims, toExtend []*Entry
	c.mu.Lock()
	for g := range c.groups {
		for _, e := range c.groups[g] {
			if !dependsOn(e.Node.Tables, table) {
				continue
			}
			// Extension requires version continuity: the entry must be
			// tagged with exactly the pre-commit epoch (ver-1). The walk
			// runs on every commit, so current entries always are; an
			// entry tagged older was admitted around a commit it never
			// saw — extending it could resurrect rows a missed delete
			// epoch removed, so it is evicted instead.
			snap, tagged := tableTag(e, table)
			if appendOnly && extend != nil && e.Extendable && tagged &&
				snap.Ver == ver-1 && snap.Rows <= rows {
				toExtend = append(toExtend, e)
			} else {
				victims = append(victims, e)
			}
		}
	}
	seq := r.curSeq()
	for _, e := range victims {
		r.evictLocked(e, seq)
	}
	c.mu.Unlock()
	r.stats.invalidated.Add(int64(len(victims)))
	evicted = len(victims)
	// Extensions execute the cached subplan, so they run outside the cache
	// lock; the swap re-validates that the entry is still published (a
	// concurrent policy eviction may have raced us).
	for _, e := range toExtend {
		if r.extendEntry(e, table, ver, rows, extend) {
			extended++
		} else {
			evicted++
		}
	}
	return evicted, extended
}

// extendEntry grows one cached entry by the appended delta, swapping in a
// fresh Entry so concurrent replays of the old epoch stay untouched. On any
// failure (extension error, cache over capacity, lost race) the stale entry
// is evicted instead — correctness never depends on the extension.
func (r *Recycler) extendEntry(e *Entry, table string, ver, rows int64, extend ExtendFunc) bool {
	lo := e.Snap[table].Rows
	delta, drows, dbytes, ok := extend(e, table, lo, rows)
	c := r.cache
	c.mu.Lock()
	if e.Node.cached.Load() != e {
		c.mu.Unlock()
		return false // concurrently evicted or replaced; nothing to do
	}
	if !ok || !c.fits(dbytes) {
		r.evictLocked(e, r.curSeq())
		c.mu.Unlock()
		r.stats.invalidated.Add(1)
		return false
	}
	snap := maps.Clone(e.Snap)
	snap[table] = TableSnap{Ver: ver, Rows: rows}
	batches := e.Batches
	if len(delta) > 0 {
		batches = append(append([]*vector.Batch(nil), e.Batches...), delta...)
	}
	ne := &Entry{
		Node: e.Node, Batches: batches,
		Size: e.Size + dbytes, Rows: e.Rows + drows,
		Snap: snap, Plan: e.Plan, Extendable: true,
		benefit: e.benefit,
	}
	// The same logical entry continues: it moves to its new size group and
	// the byte delta is charged, but neither admissions nor evictions move.
	c.unlinkLocked(e)
	g := sizeGroup(ne.Size)
	c.groups[g] = append(c.groups[g], ne)
	ne.Node.cached.Store(ne)
	c.used.Add(dbytes)
	c.mu.Unlock()
	r.stats.deltaExtended.Add(1)
	r.stats.deltaRows.Add(drows)
	return true
}

// dependsOn reports whether a lineage set contains table (or the unknown
// sentinel, which depends on everything).
func dependsOn(tables []string, table string) bool {
	for _, t := range tables {
		if t == table || t == plan.LineageAll {
			return true
		}
	}
	return false
}

// tableTag returns the entry's snapshot tag for table. Untagged entries
// (nil Snap, or lineage the tag does not cover) cannot be extended.
func tableTag(e *Entry, table string) (TableSnap, bool) {
	if e.Snap == nil {
		return TableSnap{}, false
	}
	ts, ok := e.Snap[table]
	return ts, ok
}
