package exec

import (
	"container/heap"
	"sort"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// rowLess compares rows a and b of batch rows under keys; returns true if
// a orders before b. Comparison is typed per column — no Datum boxing in
// the sort's O(M log M) comparator.
func rowLess(rows *vector.Batch, keys []plan.SortKey, keyIdx []int, a, b int) bool {
	for k, idx := range keyIdx {
		c := colCompare(rows.Vecs[idx], a, b)
		if c == 0 {
			continue
		}
		if keys[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// colCompare orders physical rows a and b of one column vector.
func colCompare(v *vector.Vector, a, b int) int {
	switch v.Typ {
	case vector.Int64, vector.Date:
		x, y := v.I64[a], v.I64[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case vector.Float64:
		x, y := v.F64[a], v.F64[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case vector.String:
		x, y := v.Str[a], v.Str[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case vector.Bool:
		x, y := v.B[a], v.B[b]
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}

// SortOp fully sorts its input (blocking). The arena and the order array
// grow through the pool and go back to it in Close.
type SortOp struct {
	base
	Child  Operator
	Keys   []plan.SortKey
	keyIdx []int
	built  bool
	rowsIn *vector.Batch
	order  []int32
	emit   int
	out    *vector.Batch
}

// NewSort builds a full sort over child.
func NewSort(child Operator, keys []plan.SortKey) *SortOp {
	s := &SortOp{base: base{schema: child.Schema()}, Child: child, Keys: keys}
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

func (s *SortOp) build(ctx *Ctx) error {
	pool := ctx.pool()
	s.rowsIn = pool.GetBatch(s.schema.Types(), ctx.vecSize())
	for {
		b, err := s.Child.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// Columnar, selection-aware bulk append into the sort arena.
		pool.ReserveBatch(s.rowsIn, b.Len())
		s.rowsIn.AppendBatch(b)
	}
	n := s.rowsIn.Len()
	s.order = pool.I32.Get(n)[:n]
	for i := range s.order {
		s.order[i] = int32(i)
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return rowLess(s.rowsIn, s.Keys, s.keyIdx, int(s.order[a]), int(s.order[b]))
	})
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
	hi := s.emit + ctx.vecSize()
	if hi > len(s.order) {
		hi = len(s.order)
	}
	s.out.AppendBatchIndex(s.rowsIn, s.order[s.emit:hi])
	s.rows += int64(hi - s.emit)
	s.emit = hi
	return s.out, nil
}

// Close implements Operator.
func (s *SortOp) Close(ctx *Ctx) error {
	pool := ctx.pool()
	pool.PutBatch(s.out)
	pool.PutBatch(s.rowsIn)
	pool.I32.Put(s.order)
	s.out, s.rowsIn, s.order = nil, nil, nil
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

// TopNOp keeps the N first rows under the sort order using a bounded heap
// of size N, at O(M log N) as the paper describes for Vectorwise's topN
// (§IV-B). It never sorts its whole input. The heap arena, its compacted
// replacements and the order array come from the pool and go back to it.
type TopNOp struct {
	base
	Child  Operator
	Keys   []plan.SortKey
	N      int
	keyIdx []int
	built  bool
	rowsIn *vector.Batch // retained candidate rows (heap arena)
	h      *topHeap
	order  []int32
	emit   int
	out    *vector.Batch
}

// NewTopN builds a heap-based top-N over child.
func NewTopN(child Operator, keys []plan.SortKey, n int) *TopNOp {
	t := &TopNOp{base: base{schema: child.Schema()}, Child: child, Keys: keys, N: n}
	t.keyIdx = make([]int, len(keys))
	for i, k := range keys {
		t.keyIdx[i] = child.Schema().ColIndex(k.Col)
	}
	return t
}

// topHeap is a max-heap of row indexes: the root is the *worst* retained
// row, so a better incoming row replaces it in O(log N).
type topHeap struct {
	rows   *vector.Batch
	keys   []plan.SortKey
	keyIdx []int
	idx    []int32
}

func (h *topHeap) Len() int { return len(h.idx) }
func (h *topHeap) Less(a, b int) bool {
	// Inverted: the heap keeps the largest (worst) at the root.
	return rowLess(h.rows, h.keys, h.keyIdx, int(h.idx[b]), int(h.idx[a]))
}
func (h *topHeap) Swap(a, b int)      { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *topHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int32)) }
func (h *topHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// Open implements Operator.
func (t *TopNOp) Open(ctx *Ctx) error {
	t.built = false
	t.emit = 0
	t.out = ctx.pool().GetBatch(t.schema.Types(), ctx.vecSize())
	return t.Child.Open(ctx)
}

func (t *TopNOp) build(ctx *Ctx) error {
	pool := ctx.pool()
	t.rowsIn = pool.GetBatch(t.schema.Types(), ctx.vecSize())
	t.h = &topHeap{rows: t.rowsIn, keys: t.Keys, keyIdx: t.keyIdx}
	for {
		b, err := t.Child.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		// Each input row grows the arena by at most one row.
		pool.ReserveBatch(t.rowsIn, n)
		for i := 0; i < n; i++ {
			if t.h.Len() < t.N {
				r := int32(t.rowsIn.Len())
				t.rowsIn.AppendRow(b, i)
				heap.Push(t.h, r)
				continue
			}
			worst := t.h.idx[0]
			// Compare incoming row (in b) against the worst retained row
			// by materializing it temporarily at the arena tail.
			r := t.rowsIn.Len()
			t.rowsIn.AppendRow(b, i)
			if rowLess(t.rowsIn, t.Keys, t.keyIdx, r, int(worst)) {
				t.h.idx[0] = int32(r)
				heap.Fix(t.h, 0)
			} else {
				truncateBatch(t.rowsIn, r)
			}
		}
		// Compact the arena periodically so it stays O(N).
		if t.rowsIn.Len() > 4*t.N+ctx.vecSize() {
			t.compact(pool)
		}
	}
	t.order = append(pool.I32.Get(t.h.Len()), t.h.idx...)
	sort.SliceStable(t.order, func(a, b int) bool {
		return rowLess(t.rowsIn, t.Keys, t.keyIdx, int(t.order[a]), int(t.order[b]))
	})
	t.built = true
	return nil
}

// compact rewrites the arena to contain only retained rows, in a pooled
// batch the size of the one it replaces, which goes back to the pool.
func (t *TopNOp) compact(pool *vector.Pool) {
	fresh := pool.GetBatch(t.schema.Types(), t.rowsIn.Len())
	fresh.AppendBatchIndex(t.rowsIn, t.h.idx)
	for i := range t.h.idx {
		t.h.idx[i] = int32(i)
	}
	pool.PutBatch(t.rowsIn)
	t.rowsIn, t.h.rows = fresh, fresh
}

// truncateBatch drops rows from position r onward.
func truncateBatch(b *vector.Batch, r int) {
	for _, v := range b.Vecs {
		switch v.Typ {
		case vector.Int64, vector.Date:
			v.I64 = v.I64[:r]
		case vector.Float64:
			v.F64 = v.F64[:r]
		case vector.String:
			v.Str = v.Str[:r]
		case vector.Bool:
			v.B = v.B[:r]
		}
	}
}

// Next implements Operator.
func (t *TopNOp) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	if !t.built {
		if err := t.build(ctx); err != nil {
			return nil, err
		}
	}
	if t.emit >= len(t.order) {
		return nil, nil
	}
	t.out.Reset()
	hi := t.emit + ctx.vecSize()
	if hi > len(t.order) {
		hi = len(t.order)
	}
	t.out.AppendBatchIndex(t.rowsIn, t.order[t.emit:hi])
	t.rows += int64(hi - t.emit)
	t.emit = hi
	return t.out, nil
}

// Close implements Operator.
func (t *TopNOp) Close(ctx *Ctx) error {
	pool := ctx.pool()
	pool.PutBatch(t.out)
	pool.PutBatch(t.rowsIn)
	pool.I32.Put(t.order)
	t.out, t.rowsIn, t.h, t.order = nil, nil, nil, nil
	return t.Child.Close(ctx)
}

// Progress implements Operator.
func (t *TopNOp) Progress() float64 {
	if !t.built {
		return 0
	}
	if len(t.order) == 0 {
		return 1
	}
	return float64(t.emit) / float64(len(t.order))
}
