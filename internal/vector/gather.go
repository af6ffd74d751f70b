package vector

// Vectorized copy kernels: each column is copied (or gathered through a
// selection) in one tight typed loop, with no per-row type dispatch. They
// are the compaction half of the selection-vector design — consumers that
// cannot iterate a selection gather it away column-wise.

// RefineSel compacts sel in place to the entries whose flag is set:
// flags[i] judges logical row i, the row sel[i] selects, so len(flags) must
// equal len(sel). The returned slice aliases sel's storage (survivors are
// written to its prefix, which is safe because the write index never passes
// the read index) — the caller must own sel. This is the fused-filter
// kernel: a chain of predicates refines one shared selection vector with no
// intermediate selection buffers.
func RefineSel(sel []int32, flags []bool) []int32 {
	if len(sel) == 0 {
		return sel
	}
	// Hoist the bounds relationship so the loop body carries no slice
	// checks: after this, flags[i] and sel[i] are both provably in range.
	flags = flags[:len(sel)]
	k := 0
	for i, s := range sel {
		// Branch-free compaction: unconditional store, conditional
		// advance. The write index never passes the read index, so the
		// in-place store is safe, and the loop body is a straight-line
		// cmov candidate instead of a mispredicted branch per row.
		sel[k] = s
		if flags[i] {
			k++
		}
	}
	return sel[:k]
}

// AppendAll bulk-appends every row of src to v. Types must match.
func (v *Vector) AppendAll(src *Vector) {
	switch v.Typ {
	case Int64, Date:
		v.I64 = append(v.I64, src.I64...)
	case Float64:
		v.F64 = append(v.F64, src.F64...)
	case String:
		v.Str = append(v.Str, src.Str...)
	case Bool:
		v.B = append(v.B, src.B...)
	}
}

// AppendRange bulk-appends physical rows [lo, hi) of src to v.
func (v *Vector) AppendRange(src *Vector, lo, hi int) {
	switch v.Typ {
	case Int64, Date:
		v.I64 = append(v.I64, src.I64[lo:hi]...)
	case Float64:
		v.F64 = append(v.F64, src.F64[lo:hi]...)
	case String:
		v.Str = append(v.Str, src.Str[lo:hi]...)
	case Bool:
		v.B = append(v.B, src.B[lo:hi]...)
	}
}

// AppendGather appends the physical src rows listed in sel to v. The grow is
// done once up front so the gather loop is a pure indexed store — no append
// bookkeeping or capacity branch per element.
func (v *Vector) AppendGather(src *Vector, sel []int32) {
	n := len(sel)
	if n == 0 {
		return
	}
	switch v.Typ {
	case Int64, Date:
		out := Extend(v.I64, n)
		dst, in := out[len(out)-n:], src.I64
		for i, r := range sel {
			dst[i] = in[r]
		}
		v.I64 = out
	case Float64:
		out := Extend(v.F64, n)
		dst, in := out[len(out)-n:], src.F64
		for i, r := range sel {
			dst[i] = in[r]
		}
		v.F64 = out
	case String:
		out := Extend(v.Str, n)
		dst, in := out[len(out)-n:], src.Str
		for i, r := range sel {
			dst[i] = in[r]
		}
		v.Str = out
	case Bool:
		out := Extend(v.B, n)
		dst, in := out[len(out)-n:], src.B
		for i, r := range sel {
			dst[i] = in[r]
		}
		v.B = out
	}
}

// AppendBatch appends all logical rows of src to b column-wise, compacting
// src's selection if it has one. Schemas must match.
func (b *Batch) AppendBatch(src *Batch) {
	if src.Sel == nil {
		for c, v := range b.Vecs {
			v.AppendAll(src.Vecs[c])
		}
		return
	}
	for c, v := range b.Vecs {
		v.AppendGather(src.Vecs[c], src.Sel)
	}
}

// AppendBatchRange appends logical rows [lo, hi) of src to b column-wise.
func (b *Batch) AppendBatchRange(src *Batch, lo, hi int) {
	if src.Sel == nil {
		for c, v := range b.Vecs {
			v.AppendRange(src.Vecs[c], lo, hi)
		}
		return
	}
	sel := src.Sel[lo:hi]
	for c, v := range b.Vecs {
		v.AppendGather(src.Vecs[c], sel)
	}
}

// AppendBatchIndex appends the physical src rows listed in idx to b
// column-wise (sort arenas are dense, so physical = logical there).
func (b *Batch) AppendBatchIndex(src *Batch, idx []int32) {
	for c, v := range b.Vecs {
		v.AppendGather(src.Vecs[c], idx)
	}
}

// CopyFrom resets b and appends all logical rows of src: selection-aware
// columnar compaction into b's retained capacity.
func (b *Batch) CopyFrom(src *Batch) {
	b.Reset()
	b.AppendBatch(src)
}
