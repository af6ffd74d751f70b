package vector

// Batch is a horizontal slice of rows stored column-wise. All vectors in a
// batch have the same length.
//
// A batch may carry a selection vector (X100-style): when Sel is non-nil,
// the batch's logical rows are Sel[0], Sel[1], ... — ascending indexes into
// the physical vectors. Predicates produce selections instead of compacting
// survivors row by row, so a filter is near-zero-copy. Logical accessors
// (Len, Row, Bytes, Clone, the Append* batch kernels) all honour
// Sel; code that indexes Vecs directly must map logical positions through
// RowIdx or iterate the selection itself.
type Batch struct {
	Vecs []*Vector
	Sel  []int32
}

// NewBatch returns a batch with one empty vector per type in types.
func NewBatch(types []Type, capacity int) *Batch {
	b := &Batch{Vecs: make([]*Vector, len(types))}
	for i, t := range types {
		b.Vecs[i] = New(t, capacity)
	}
	return b
}

// Len returns the number of logical rows in the batch.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// PhysLen returns the number of physical rows backing the batch.
func (b *Batch) PhysLen() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// RowIdx maps a logical row position to its physical index.
func (b *Batch) RowIdx(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Vecs) }

// Reset truncates all vectors to zero rows and drops the selection.
func (b *Batch) Reset() {
	for _, v := range b.Vecs {
		v.Reset()
	}
	b.Sel = nil
}

// Row returns logical row i as a slice of datums (for tests and result
// rendering).
func (b *Batch) Row(i int) []Datum {
	i = b.RowIdx(i)
	out := make([]Datum, len(b.Vecs))
	for c, v := range b.Vecs {
		out[c] = v.Datum(i)
	}
	return out
}

// Bytes returns the approximate memory footprint of the batch's logical
// rows (what a compacting Clone would occupy).
func (b *Batch) Bytes() int64 {
	if b.Sel == nil {
		var n int64
		for _, v := range b.Vecs {
			n += v.Bytes()
		}
		return n
	}
	rows := int64(len(b.Sel))
	var n int64
	for _, v := range b.Vecs {
		n += rows * v.Typ.Width()
		if v.Typ == String {
			for _, r := range b.Sel {
				n += int64(len(v.Str[r]))
			}
		}
	}
	return n
}

// Clone deep-copies the batch's logical rows. A selection is compacted
// away: the clone is always dense and owns all of its memory.
func (b *Batch) Clone() *Batch {
	if b.Sel == nil {
		c := &Batch{Vecs: make([]*Vector, len(b.Vecs))}
		for i, v := range b.Vecs {
			c.Vecs[i] = v.Clone()
		}
		return c
	}
	c := NewBatch(b.Types(), len(b.Sel))
	c.AppendBatch(b)
	return c
}

// Types returns the vector types of the batch columns.
func (b *Batch) Types() []Type {
	ts := make([]Type, len(b.Vecs))
	for i, v := range b.Vecs {
		ts[i] = v.Typ
	}
	return ts
}
