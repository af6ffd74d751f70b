package exec

import (
	"cmp"
	"slices"
	"strings"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// colCompare orders physical row a of column x against physical row b of
// column y, which has x's type: typed per column, with no Datum boxing in
// the sort's comparator. NaN orders first, so the order is total.
func colCompare(x *vector.Vector, a int, y *vector.Vector, b int) int {
	switch x.Typ {
	case vector.Int64, vector.Date:
		return cmp.Compare(x.I64[a], y.I64[b])
	case vector.Float64:
		return cmp.Compare(x.F64[a], y.F64[b])
	case vector.String:
		return strings.Compare(x.Str[a], y.Str[b])
	case vector.Bool:
		return cmp.Compare(b2i(x.B[a]), b2i(y.B[b]))
	}
	return 0
}

// SortOp sorts its input (blocking) on (sort keys, arena index), so tied
// rows keep their arrival order. With a row bound N > 0 it is the top-N: it
// emits the first N rows of that order from an arena of O(max(N, vector
// size)) rows. Whenever the arena reaches its cut size (2N, doubling at
// each cut up to max(2N, vector size)) it is sorted and cut to its first N
// rows, in order; after the first cut an incoming row enters only if it
// orders strictly before arena row N-1 (a tied row arrived later, so it
// loses). The arena holds the earlier cuts in order, then later arrivals,
// so a bounded sort returns exactly the first N rows of the full sort, and
// topN(n) over topN(m >= n) is topN(n), which the §IV-B widening relies
// on. The arenas, the order and the scratch grow through the pool and go
// back to it in Close.
type SortOp struct {
	base
	Child  Operator
	Keys   []plan.SortKey
	N      int // row bound; 0 sorts the whole input
	keyIdx []int
	built  bool
	arena  *vector.Batch
	spare  *vector.Batch // a cut gathers the arena's first N rows here
	order  []int32
	// scratch holds the input rows admit takes, or a merge's output.
	scratch []int32
	emit    int
	out     *vector.Batch
}

// NewSort builds a sort over child that emits the first n rows of the key
// order, or all of them when n is 0.
func NewSort(child Operator, keys []plan.SortKey, n int) *SortOp {
	s := &SortOp{base: base{schema: child.Schema()}, Child: child, Keys: keys, N: n}
	s.keyIdx = make([]int, len(keys))
	for i, k := range keys {
		s.keyIdx[i] = child.Schema().ColIndex(k.Col)
	}
	return s
}

// Open implements Operator.
func (s *SortOp) Open(ctx *Ctx) error {
	s.built = false
	s.emit = 0
	s.out = ctx.pool().GetBatch(s.schema.Types(), ctx.vecSize())
	return s.Child.Open(ctx)
}

// rowCompare orders physical row a of x against physical row b of y under
// the sort keys.
func (s *SortOp) rowCompare(x *vector.Batch, a int, y *vector.Batch, b int) int {
	for k, idx := range s.keyIdx {
		if c := colCompare(x.Vecs[idx], a, y.Vecs[idx], b); c != 0 {
			if s.Keys[k].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortArena sets s.order to the arena's rows in (sort keys, arena index)
// order. Its first sorted rows are in that order already (a cut left
// them), so it sorts the rest and merges the two runs.
func (s *SortOp) sortArena(pool *vector.Pool, sorted int) {
	n := s.arena.Len()
	s.order = pool.I32.Reserve(s.order[:0], n)[:n]
	for i := range s.order {
		s.order[i] = int32(i)
	}
	compare := func(a, b int32) int {
		if c := s.rowCompare(s.arena, int(a), s.arena, int(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	slices.SortFunc(s.order[sorted:], compare)
	if sorted == 0 || sorted == n {
		return
	}
	merged, i := pool.I32.Reserve(s.scratch[:0], n), int32(0)
	for _, r := range s.order[sorted:] {
		for ; int(i) < sorted && compare(i, r) < 0; i++ {
			merged = append(merged, i)
		}
		merged = append(merged, r)
	}
	merged = append(merged, s.order[i:sorted]...)
	s.order, s.scratch = merged, s.order
}

// cut sorts the arena and keeps its first N rows, in order.
func (s *SortOp) cut(pool *vector.Pool, sorted int) {
	s.sortArena(pool, sorted)
	if s.spare == nil {
		s.spare = pool.GetBatch(s.schema.Types(), s.N)
	}
	s.spare.Reset()
	pool.ReserveBatch(s.spare, s.N)
	s.spare.AppendBatchIndex(s.arena, s.order[:s.N])
	s.arena, s.spare = s.spare, s.arena
}

// admit appends b's rows from logical row lo on that order strictly before
// arena row N-1, the bound the last cut left, until the arena holds limit
// rows. It returns the first row it did not look at.
func (s *SortOp) admit(pool *vector.Pool, b *vector.Batch, lo, limit int) int {
	n, room := b.Len(), limit-s.arena.Len()
	s.scratch = pool.I32.Reserve(s.scratch[:0], min(n-lo, room))
	i := lo
	for ; i < n && len(s.scratch) < room; i++ {
		r := b.RowIdx(i)
		if s.rowCompare(b, r, s.arena, s.N-1) < 0 {
			s.scratch = append(s.scratch, int32(r))
		}
	}
	pool.ReserveBatch(s.arena, len(s.scratch))
	s.arena.AppendBatchIndex(b, s.scratch)
	return i
}

func (s *SortOp) build(ctx *Ctx) error {
	pool := ctx.pool()
	s.arena = pool.GetBatch(s.schema.Types(), ctx.vecSize())
	limit := 2 * s.N // the cut size; 0 for a full sort
	sorted := 0      // the arena's leading rows the last cut left in order
	for {
		b, err := s.Child.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for lo, n := 0, b.Len(); lo < n; {
			if sorted > 0 {
				lo = s.admit(pool, b, lo, limit)
			} else {
				// Columnar, selection-aware bulk append into the arena.
				hi := n
				if limit > 0 {
					hi = lo + min(n-lo, limit-s.arena.Len())
				}
				pool.ReserveBatch(s.arena, hi-lo)
				s.arena.AppendBatchRange(b, lo, hi)
				lo = hi
			}
			if limit > 0 && s.arena.Len() >= limit {
				s.cut(pool, sorted)
				sorted = s.N
				limit = max(2*s.N, min(2*limit, ctx.vecSize()))
			}
		}
	}
	s.sortArena(pool, sorted)
	if s.N > 0 && len(s.order) > s.N {
		s.order = s.order[:s.N]
	}
	s.built = true
	return nil
}

// Next implements Operator.
func (s *SortOp) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	if !s.built {
		if err := s.build(ctx); err != nil {
			return nil, err
		}
	}
	if s.emit >= len(s.order) {
		return nil, nil
	}
	s.out.Reset()
	hi := min(s.emit+ctx.vecSize(), len(s.order))
	s.out.AppendBatchIndex(s.arena, s.order[s.emit:hi])
	s.rows += int64(hi - s.emit)
	s.emit = hi
	return s.out, nil
}

// Close implements Operator.
func (s *SortOp) Close(ctx *Ctx) error {
	pool := ctx.pool()
	pool.PutBatch(s.out)
	pool.PutBatch(s.arena)
	pool.PutBatch(s.spare)
	pool.I32.Put(s.order)
	pool.I32.Put(s.scratch)
	s.out, s.arena, s.spare, s.order, s.scratch = nil, nil, nil, nil, nil
	return s.Child.Close(ctx)
}

// Progress implements Operator.
func (s *SortOp) Progress() float64 {
	if !s.built {
		return 0
	}
	if len(s.order) == 0 {
		return 1
	}
	return float64(s.emit) / float64(len(s.order))
}
