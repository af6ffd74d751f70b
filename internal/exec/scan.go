package exec

import (
	"fmt"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// rangeScan is the scan body shared by TableScan and a fused pipe's morsel
// source (which points pos/end at one claimed morsel at a time): it slices
// rows [pos, end) of a statement snapshot into batches without copying
// (batches alias table storage; consumers never mutate input batches).
//
// Writers committing new epochs concurrently never disturb it — the
// snapshot's column slices are bounded to its watermark and the rows below a
// watermark are immutable. Deleted rows are skipped by attaching a selection
// vector to the output batch; ranges without deletions flow through dense.
type rangeScan struct {
	base
	snap     *catalog.Snapshot
	cols     []int // column indexes into the table schema
	pos, end int
	out      *vector.Batch
	sel      []int32
}

// bind points the scan at snap. The vector structs are allocated once and
// re-sliced over table storage every Next, so the steady-state scan never
// allocates.
func (s *rangeScan) bind(snap *catalog.Snapshot) {
	s.snap = snap
	if s.out == nil {
		s.out = &vector.Batch{Vecs: make([]*vector.Vector, len(s.cols))}
		for i, c := range s.cols {
			s.out.Vecs[i] = &vector.Vector{Typ: snap.Col(c).Typ}
		}
	}
}

// sliceCols points dst's vectors at rows [lo, hi) of the given snapshot
// columns.
func sliceCols(dst []*vector.Vector, snap *catalog.Snapshot, cols []int, lo, hi int) {
	for i, c := range cols {
		col := snap.Col(c)
		v := dst[i]
		switch col.Typ {
		case vector.Int64, vector.Date:
			v.I64 = col.I64[lo:hi]
		case vector.Float64:
			v.F64 = col.F64[lo:hi]
		case vector.String:
			v.Str = col.Str[lo:hi]
		case vector.Bool:
			v.B = col.B[lo:hi]
		}
	}
}

// Next implements Operator: the batches of [pos, end), then (nil, nil).
func (s *rangeScan) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	defer s.addCost(time.Now())
	for s.pos < s.end {
		lo := s.pos
		hi := min(lo+ctx.vecSize(), s.end)
		s.pos = hi
		sliceCols(s.out.Vecs, s.snap, s.cols, lo, hi)
		s.out.Sel = nil
		if s.snap.Del.AnyIn(lo, hi) {
			if s.sel == nil {
				s.sel = make([]int32, 0, ctx.vecSize())
			}
			sel := s.sel[:0]
			for r := lo; r < hi; r++ {
				if !s.snap.Del.Has(r) {
					sel = append(sel, int32(r-lo))
				}
			}
			s.sel = sel
			if len(sel) == 0 {
				continue // every row in the range is deleted
			}
			s.out.Sel = sel
		}
		s.rows += int64(s.out.Len())
		return s.out, nil
	}
	return nil, nil
}

// Close implements Operator.
func (s *rangeScan) Close(ctx *Ctx) error { return nil }

// TableScan reads a projection of a base table as of the per-statement
// snapshot (Ctx.SnapFor): a consistent (watermark, delete-bitmap) epoch
// captured at Open.
type TableScan struct {
	rangeScan
	Table *catalog.Table
	lo    int // scan start (nonzero for delta runs)
}

// NewTableScan builds a scan of the given column indexes of t.
func NewTableScan(t *catalog.Table, cols []int, schema catalog.Schema) *TableScan {
	return &TableScan{rangeScan: rangeScan{base: base{schema: schema}, cols: cols}, Table: t}
}

// Open implements Operator.
func (s *TableScan) Open(ctx *Ctx) error {
	defer s.addCost(time.Now())
	s.bind(ctx.SnapFor(s.Table))
	s.lo = ctx.scanStart(s.Table.Name, s.snap)
	s.pos, s.end = s.lo, s.snap.Rows
	return nil
}

// Progress implements Operator: scans know their total row count.
func (s *TableScan) Progress() float64 {
	if s.snap == nil {
		return 0
	}
	n := s.snap.Rows - s.lo
	if n <= 0 {
		return 1
	}
	return float64(s.pos-s.lo) / float64(n)
}

// TableFnScan invokes a table function at Open and replays its result.
type TableFnScan struct {
	base
	Fn   *catalog.TableFunc
	Args []vector.Datum
	res  *catalog.Result
	idx  int
}

// NewTableFnScan builds a table-function leaf.
func NewTableFnScan(fn *catalog.TableFunc, args []vector.Datum) *TableFnScan {
	return &TableFnScan{base: base{schema: fn.Schema}, Fn: fn, Args: args}
}

// Open implements Operator; the function is evaluated here so its cost is
// attributed to this leaf.
func (s *TableFnScan) Open(ctx *Ctx) error {
	defer s.addCost(time.Now())
	res, err := s.Fn.Invoke(ctx.Cat, s.Args)
	if err != nil {
		return fmt.Errorf("exec: table function %s: %w", s.Fn.Name, err)
	}
	s.res = res
	s.idx = 0
	return nil
}

// Next implements Operator.
func (s *TableFnScan) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	defer s.addCost(time.Now())
	if s.res == nil || s.idx >= len(s.res.Batches) {
		return nil, nil
	}
	b := s.res.Batches[s.idx]
	s.idx++
	s.rows += int64(b.Len())
	return b, nil
}

// Close implements Operator.
func (s *TableFnScan) Close(ctx *Ctx) error {
	s.res = nil
	return nil
}

// Progress implements Operator.
func (s *TableFnScan) Progress() float64 {
	if s.res == nil {
		return 0
	}
	if len(s.res.Batches) == 0 {
		return 1
	}
	return float64(s.idx) / float64(len(s.res.Batches))
}

// CacheScan replays a materialized result from the recycler cache,
// projecting and reordering columns through outIdx (the name-mapping applied
// physically: output column i is cached column outIdx[i]).
type CacheScan struct {
	base
	Batches []*vector.Batch
	OutIdx  []int
	idx     int
	// Release is called once at Close (unpins the cache entry).
	Release func()
	out     *vector.Batch
}

// NewCacheScan builds a replay of cached batches.
func NewCacheScan(schema catalog.Schema, batches []*vector.Batch, outIdx []int, release func()) *CacheScan {
	return &CacheScan{base: base{schema: schema}, Batches: batches, OutIdx: outIdx, Release: release}
}

// Open implements Operator.
func (s *CacheScan) Open(ctx *Ctx) error {
	s.idx = 0
	s.out = &vector.Batch{Vecs: make([]*vector.Vector, len(s.OutIdx))}
	return nil
}

// Next implements Operator.
func (s *CacheScan) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	defer s.addCost(time.Now())
	if s.idx >= len(s.Batches) {
		return nil, nil
	}
	src := s.Batches[s.idx]
	s.idx++
	for i, c := range s.OutIdx {
		s.out.Vecs[i] = src.Vecs[c]
	}
	s.rows += int64(src.Len())
	return s.out, nil
}

// Close implements Operator.
func (s *CacheScan) Close(ctx *Ctx) error {
	if s.Release != nil {
		s.Release()
		s.Release = nil
	}
	return nil
}

// Progress implements Operator.
func (s *CacheScan) Progress() float64 {
	if len(s.Batches) == 0 {
		return 1
	}
	return float64(s.idx) / float64(len(s.Batches))
}
