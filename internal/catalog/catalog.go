// Package catalog implements the in-memory columnar storage layer: base
// tables, their schemas, and registered table functions (used by the
// SkyServer workload's fGetNearbyObjEq). Tables are writable through an
// epoch-versioned single-writer path (see Writer): appends publish a new
// row watermark and deletes publish a new immutable delete bitmap, both
// under a monotonically increasing per-table data version, so scans read a
// consistent per-statement snapshot (Snapshot) while writers proceed. The
// paper leaves update handling / view maintenance out of scope (§II); this
// layer goes beyond it so the recycler can stay correct — and, via append
// delta extension, profitable — under churn (cf. Dursun et al., "Revisiting
// Reuse in Main Memory Database Systems", SIGMOD 2017).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"recycledb/internal/vector"
)

// Column describes one column of a table or intermediate result.
type Column struct {
	Name string
	Typ  vector.Type
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Types returns the vector types of the schema columns.
func (s Schema) Types() []vector.Type {
	ts := make([]vector.Type, len(s))
	for i, c := range s {
		ts[i] = c.Typ
	}
	return ts
}

// Names returns the column names.
func (s Schema) Names() []string {
	ns := make([]string, 0, len(s))
	for _, c := range s {
		ns = append(ns, c.Name)
	}
	return ns
}

// Table is a columnar table. Column data is stored in one contiguous typed
// slice per column; scans slice a Snapshot of it into batches.
//
// All mutation flows through the single-writer epoch path: BeginWrite
// serializes writers, buffered appends and deletes become visible atomically
// at Commit (new watermark, new delete bitmap, bumped data version), and
// concurrent snapshots keep reading the state they captured. There is no way
// to mutate a table ad hoc during execution — the unsynchronized append the
// seed engine allowed is a compile error now.
type Table struct {
	Name   string
	Schema Schema

	// writeMu serializes writers (one Writer session at a time).
	writeMu sync.Mutex
	// mu guards the column slice headers, rows, and notify against the
	// brief critical section in which Commit publishes a new epoch.
	mu   sync.RWMutex
	cols []*vector.Vector // guarded by mu
	rows int              // committed row watermark (mirrored in watermark); guarded by mu

	watermark atomic.Int64
	dels      atomic.Pointer[DeleteSet]
	dataVer   atomic.Int64

	notify func(*Table, CommitInfo) // guarded by mu

	distinctMu sync.Mutex
	distinct   map[int]int64 // guarded by distinctMu
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	t.cols = make([]*vector.Vector, len(schema))
	for i, c := range schema {
		t.cols[i] = vector.New(c.Typ, 0)
	}
	return t
}

// Rows returns the number of live rows (committed watermark minus deletes).
func (t *Table) Rows() int {
	n := int(t.watermark.Load())
	if d := t.dels.Load(); d != nil {
		n -= d.Count()
	}
	return n
}

// DataVersion returns the table's data version: it advances on every
// committed write epoch (append and/or delete). The recycler tags cached
// results with it and rejects entries computed at another version.
func (t *Table) DataVersion() int64 { return t.dataVer.Load() }

// Tag returns the table's data version and row watermark as one pair from
// one committed epoch, the tags a Snapshot carries, without capturing any
// column.
func (t *Table) Tag() (ver int64, rows int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dataVer.Load(), t.rows
}

// Snapshot captures a consistent read view of the table: the committed row
// watermark, the column storage up to it, the delete bitmap, and the data
// version, all published atomically by the last Commit. Snapshots stay
// valid — and keep showing exactly their epoch — while writers commit new
// ones.
type Snapshot struct {
	Schema Schema
	// Rows is the physical row watermark (deleted rows included).
	Rows int
	// Ver is the table data version the snapshot captured.
	Ver  int64
	Del  *DeleteSet
	cols []vector.Vector
}

// Snapshot returns the table's current committed snapshot.
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &Snapshot{
		Schema: t.Schema,
		Rows:   t.rows,
		Ver:    t.dataVer.Load(),
		Del:    t.dels.Load(),
		cols:   make([]vector.Vector, len(t.cols)),
	}
	for i, c := range t.cols {
		s.cols[i] = c.Slice(t.rows)
	}
	return s
}

// Col returns the snapshot's column i, bounded to the snapshot watermark.
// Callers must not modify it.
func (s *Snapshot) Col(i int) *vector.Vector { return &s.cols[i] }

// Live returns the number of live (non-deleted) rows in the snapshot.
func (s *Snapshot) Live() int {
	if s.Del == nil {
		return s.Rows
	}
	return s.Rows - s.Del.Count()
}

// Deleted reports whether physical row i is deleted in this snapshot.
func (s *Snapshot) Deleted(i int) bool { return s.Del.Has(i) }

// Bytes returns the approximate footprint of the snapshot's storage.
func (s *Snapshot) Bytes() int64 {
	var n int64
	for i := range s.cols {
		n += s.cols[i].Bytes()
	}
	return n
}

// DeleteSet is an immutable bitmap of deleted physical row positions.
// Writers publish a fresh DeleteSet per epoch; readers never see it change.
type DeleteSet struct {
	bits  []uint64
	count int
}

// Has reports whether row i is deleted. A nil DeleteSet has no deletions.
func (d *DeleteSet) Has(i int) bool {
	if d == nil {
		return false
	}
	w := i >> 6
	if w < 0 || w >= len(d.bits) {
		return false
	}
	return d.bits[w]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of deleted rows.
func (d *DeleteSet) Count() int {
	if d == nil {
		return 0
	}
	return d.count
}

// AnyIn reports whether any row in [lo, hi) is deleted.
func (d *DeleteSet) AnyIn(lo, hi int) bool {
	if d == nil || lo >= hi {
		return false
	}
	if lo < 0 {
		lo = 0
	}
	for w := lo >> 6; w <= (hi-1)>>6 && w < len(d.bits); w++ {
		word := d.bits[w]
		if word == 0 {
			continue
		}
		base := w << 6
		from, to := 0, 64
		if base < lo {
			from = lo - base
		}
		if base+64 > hi {
			to = hi - base
		}
		for b := from; b < to; b++ {
			if word&(1<<uint(b)) != 0 {
				return true
			}
		}
	}
	return false
}

// with returns a new DeleteSet with rows added (already-deleted rows are
// skipped); n bounds the bitmap size in rows.
func (d *DeleteSet) with(rows []int, n int) (*DeleteSet, int) {
	nd := &DeleteSet{bits: make([]uint64, (n+63)/64)}
	if d != nil {
		copy(nd.bits, d.bits)
		nd.count = d.count
	}
	added := 0
	for _, r := range rows {
		if r < 0 || r >= n {
			continue
		}
		w, b := r>>6, uint(r)&63
		if nd.bits[w]&(1<<b) != 0 {
			continue
		}
		nd.bits[w] |= 1 << b
		nd.count++
		added++
	}
	return nd, added
}

// CommitInfo describes one committed write epoch.
type CommitInfo struct {
	// Table is the written table's name.
	Table string
	// PrevRows and Rows are the row watermarks before and after the
	// commit; appended rows occupy [PrevRows, Rows).
	PrevRows, Rows int64
	// Appended and Deleted count the rows this epoch added and removed.
	Appended, Deleted int64
	// AppendOnly reports that the epoch removed nothing — the case the
	// recycler delta-extends cached results for instead of evicting them.
	AppendOnly bool
	// Ver is the table data version after the commit.
	Ver int64
}

// Writer is a single-writer epoch session on one table. Appends and deletes
// buffer inside the session and become visible — all of them, atomically —
// at Commit. Concurrent snapshots (and therefore scans) are never blocked
// for longer than the commit's slice-header publication.
//
// A Writer must be finished with exactly one Commit or Abort; it holds the
// table's writer lock in between.
type Writer struct {
	t        *Table
	pend     []*vector.Vector
	pendRows int
	dels     []int
	done     bool
}

// BeginWrite starts a write epoch, blocking while another writer has one
// open.
func (t *Table) BeginWrite() *Writer {
	t.writeMu.Lock()
	w := &Writer{t: t, pend: make([]*vector.Vector, len(t.Schema))}
	for i, c := range t.Schema {
		w.pend[i] = vector.New(c.Typ, 0)
	}
	return w
}

// AppendRow buffers one row given as datums in schema order.
func (w *Writer) AppendRow(vals ...vector.Datum) error {
	if len(vals) != len(w.t.Schema) {
		return fmt.Errorf("catalog: table %s expects %d values, got %d",
			w.t.Name, len(w.t.Schema), len(vals))
	}
	for i, d := range vals {
		want := w.t.Schema[i].Typ
		got := d.Typ
		if want != got && !(want == vector.Date && got == vector.Int64) {
			return fmt.Errorf("catalog: table %s column %s expects %v, got %v",
				w.t.Name, w.t.Schema[i].Name, want, got)
		}
		w.pend[i].AppendDatum(d)
	}
	w.pendRows++
	return nil
}

// Appender returns the fast columnar appender over this write session. The
// generator packages use it to avoid per-row interface churn.
func (w *Writer) Appender() *Appender { return &Appender{w: w} }

// Delete buffers physical row positions (relative to the committed
// watermark) for deletion. Rows already deleted or out of range are ignored
// at commit; the returned count is the rows newly buffered here.
func (w *Writer) Delete(rows ...int) int {
	w.dels = append(w.dels, rows...)
	return len(rows)
}

// Rows returns the committed row watermark the session started from plus
// the rows buffered so far.
func (w *Writer) Rows() int { return int(w.t.watermark.Load()) + w.pendRows }

// Commit publishes the epoch: buffered rows are bulk-appended to column
// storage, buffered deletes become a fresh delete bitmap, the watermark and
// data version advance, and registered commit listeners run (still under
// the writer lock, so invalidation is ordered with respect to the next
// write). Commit panics if the columnar appender left ragged columns.
func (w *Writer) Commit() CommitInfo {
	if w.done {
		panic("catalog: Commit on a finished Writer")
	}
	w.done = true
	t := w.t
	for i, p := range w.pend {
		if p.Len() != w.pendRows {
			panic(fmt.Sprintf("catalog: table %s column %s has %d pending values for %d rows",
				t.Name, t.Schema[i].Name, p.Len(), w.pendRows))
		}
	}
	t.mu.Lock()
	prev := t.rows
	for i, p := range w.pend {
		if p.Len() > 0 {
			t.cols[i].AppendAll(p)
		}
	}
	t.rows += w.pendRows
	deleted := 0
	if len(w.dels) > 0 {
		nd, added := t.dels.Load().with(w.dels, t.rows)
		if added > 0 {
			t.dels.Store(nd)
			deleted = added
		}
	}
	t.watermark.Store(int64(t.rows))
	ver := t.dataVer.Add(1)
	notify := t.notify
	t.mu.Unlock()
	t.distinctMu.Lock()
	t.distinct = nil // cached distinct counts are stale now
	t.distinctMu.Unlock()
	info := CommitInfo{
		Table:      t.Name,
		PrevRows:   int64(prev),
		Rows:       int64(t.rows),
		Appended:   int64(w.pendRows),
		Deleted:    int64(deleted),
		AppendOnly: deleted == 0,
		Ver:        ver,
	}
	if notify != nil {
		notify(t, info)
	}
	t.writeMu.Unlock()
	return info
}

// Abort discards the session's buffered appends and deletes.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.t.writeMu.Unlock()
}

// AppendRows appends the given rows in a single committed epoch — the
// convenience path for loaders and tests. Concurrent scans observe either
// none or all of the rows.
func (t *Table) AppendRows(rows ...[]vector.Datum) error {
	w := t.BeginWrite()
	for _, r := range rows {
		if err := w.AppendRow(r...); err != nil {
			w.Abort()
			return err
		}
	}
	w.Commit()
	return nil
}

// Appender is the columnar bulk-load interface of a write session: one
// typed append per column, then FinishRow. Values become visible at the
// session's Commit.
type Appender struct {
	w *Writer
}

// Int64 appends v to column c (Int64 or Date typed).
func (a *Appender) Int64(c int, v int64) { a.w.pend[c].AppendInt64(v) }

// Float64 appends v to column c.
func (a *Appender) Float64(c int, v float64) { a.w.pend[c].AppendFloat64(v) }

// String appends v to column c.
func (a *Appender) String(c int, v string) { a.w.pend[c].AppendString(v) }

// Bool appends v to column c.
func (a *Appender) Bool(c int, v bool) { a.w.pend[c].AppendBool(v) }

// FinishRow marks one complete row appended; callers must have appended
// exactly one value to every column since the last call.
func (a *Appender) FinishRow() { a.w.pendRows++ }

// DistinctCount returns the number of distinct values in the named column,
// computed lazily over the current snapshot and cached until the next
// commit. The proactive cube-caching heuristic uses it (§IV-B: only extend
// GROUP BY with low-cardinality columns). Deleted rows still count; the
// heuristic needs magnitudes, not exactness.
func (t *Table) DistinctCount(col string) int64 {
	i := t.Schema.ColIndex(col)
	if i < 0 {
		return -1
	}
	t.distinctMu.Lock()
	defer t.distinctMu.Unlock()
	if t.distinct == nil {
		t.distinct = make(map[int]int64)
	}
	if d, ok := t.distinct[i]; ok {
		return d
	}
	v := t.Snapshot().Col(i)
	var d int64
	switch v.Typ {
	case vector.Int64, vector.Date:
		set := make(map[int64]struct{})
		for _, x := range v.I64 {
			set[x] = struct{}{}
		}
		d = int64(len(set))
	case vector.Float64:
		set := make(map[float64]struct{})
		for _, x := range v.F64 {
			set[x] = struct{}{}
		}
		d = int64(len(set))
	case vector.String:
		set := make(map[string]struct{})
		for _, x := range v.Str {
			set[x] = struct{}{}
		}
		d = int64(len(set))
	case vector.Bool:
		d = 2
	}
	t.distinct[i] = d
	return d
}

// Bytes returns the approximate footprint of the table.
func (t *Table) Bytes() int64 {
	return t.Snapshot().Bytes()
}

// TableFunc is a parameterized table-producing function (a leaf in query
// plans, like SkyServer's fGetNearbyObjEq). Invoke must be deterministic for
// identical arguments and table contents: the recycler caches its results.
type TableFunc struct {
	Name   string
	Schema Schema
	// Tables names the base tables Invoke reads, so the recycler can
	// invalidate cached results when they change. Empty means unknown:
	// results are then invalidated on every committed write to any table.
	Tables []string
	// Invoke computes the full function result. The catalog is passed so
	// functions can read base tables (through Table.Snapshot).
	Invoke func(cat *Catalog, args []vector.Datum) (*Result, error)
}

// Result is a fully materialized row set (used by table functions and by the
// operator-at-a-time baseline engine).
type Result struct {
	Schema  Schema
	Batches []*vector.Batch
}

// Rows returns the total number of rows in the result.
func (r *Result) Rows() int {
	n := 0
	for _, b := range r.Batches {
		n += b.Len()
	}
	return n
}

// Bytes returns the approximate footprint of the result.
func (r *Result) Bytes() int64 {
	var n int64
	for _, b := range r.Batches {
		n += b.Bytes()
	}
	return n
}

// Catalog is a named collection of tables and table functions. It is safe
// for concurrent readers; registration is expected at load time.
type Catalog struct {
	mu        sync.RWMutex
	tables    map[string]*Table     // guarded by mu
	funcs     map[string]*TableFunc // guarded by mu
	version   atomic.Int64
	dataVer   atomic.Int64
	listeners []func(*Table, CommitInfo) // guarded by mu
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		funcs:  make(map[string]*TableFunc),
	}
}

// Version counts schema changes only: tables or functions added or
// replaced. Compiled-plan caches compare it to reject plans built against
// an older schema snapshot. Data changes (committed write epochs) advance
// the per-table DataVersion of the written table and the catalog-wide
// DataVersion instead.
func (c *Catalog) Version() int64 { return c.version.Load() }

// DataVersion counts committed write epochs across all registered tables.
// Cached results whose exact base tables are unknown (table functions
// without lineage) are tagged with it and invalidated whenever it moves.
func (c *Catalog) DataVersion() int64 { return c.dataVer.Load() }

// OnCommit registers a listener invoked after every committed write epoch
// on any registered table, while the committing table's writer lock is
// still held (so invalidation is ordered before the next write). The
// recycler's invalidation walk hangs off this.
func (c *Catalog) OnCommit(f func(*Table, CommitInfo)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, f)
}

// dispatchCommit bumps the catalog data version and fans a commit out to
// the registered listeners.
func (c *Catalog) dispatchCommit(t *Table, info CommitInfo) {
	c.dataVer.Add(1)
	c.mu.RLock()
	ls := c.listeners
	c.mu.RUnlock()
	for _, f := range ls {
		f(t, info)
	}
}

// AddTable registers a table, replacing any previous table of the same name.
// A replacement is a data change too: the new table's data version moves
// past the replaced one's, and the catalog-wide data version advances, so a
// result cached over the old table can never validate against the new one
// (results are tagged with the name's versions, not the *Table).
func (c *Catalog) AddTable(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.tables[t.Name]
	c.tables[t.Name] = t
	c.version.Add(1)
	cat := c
	t.mu.Lock()
	t.notify = cat.dispatchCommit
	if old != nil && old != t {
		if v := old.DataVersion(); t.dataVer.Load() <= v {
			t.dataVer.Store(v + 1)
		}
		c.dataVer.Add(1)
	}
	t.mu.Unlock()
}

// CreateTable registers a new table, failing if the name is taken. The
// check and the registration share one critical section, so two concurrent
// CREATE TABLE of the same name cannot both succeed.
func (c *Catalog) CreateTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	c.version.Add(1)
	t.mu.Lock()
	t.notify = c.dispatchCommit
	t.mu.Unlock()
	return nil
}

// ErrUnknownTable is wrapped by lookups of tables (and table functions)
// that do not exist, for errors.Is matching at the API boundary.
var ErrUnknownTable = errors.New("catalog: unknown table")

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// TableNames returns the sorted names of all tables.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddFunc registers a table function.
func (c *Catalog) AddFunc(f *TableFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.funcs[f.Name] = f
	c.version.Add(1)
}

// Func returns the named table function.
func (c *Catalog) Func(name string) (*TableFunc, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w function %q", ErrUnknownTable, name)
	}
	return f, nil
}
