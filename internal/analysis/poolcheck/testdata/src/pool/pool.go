package pool

import (
	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// leakyOp draws scratch in Open and never releases it: a finding.
type leakyOp struct {
	p   *vector.Pool
	buf *vector.Batch
}

func (o *leakyOp) Open() {
	o.buf = o.p.GetBatch([]vector.Type{vector.Int64}, 16) // want `pooled GetBatch stored in leakyOp.buf is never released`
}

func (o *leakyOp) Close() {}

// tidyOp pairs its Open acquisition with a Close release: sanctioned.
type tidyOp struct {
	p     *vector.Pool
	buf   *vector.Batch
	flags *vector.Vector
}

func (o *tidyOp) Open() {
	o.buf = o.p.GetBatch([]vector.Type{vector.Int64}, 16)
	o.flags = o.p.Get(vector.Bool, 16)
}

func (o *tidyOp) Close() {
	o.p.PutBatch(o.buf)
	o.p.Put(o.flags)
}

// drainOp releases a slice of pooled vectors with the range idiom.
type drainOp struct {
	p    *vector.Pool
	vecs []*vector.Vector
}

func (o *drainOp) Open() {
	o.vecs[0] = o.p.Get(vector.Int64, 16)
}

func (o *drainOp) Close() {
	for _, v := range o.vecs {
		o.p.Put(v)
	}
}

// handoffOp transfers ownership elsewhere, with justification.
type handoffOp struct {
	p   *vector.Pool
	out *vector.Batch
}

func (o *handoffOp) Open() {
	//recycledb:pool-ok — ownership transfers to the consumer in Next
	o.out = o.p.GetBatch([]vector.Type{vector.Int64}, 16)
}

func (o *handoffOp) Close() {}

// stage mirrors the fused consumer chain: per-stage scratch lives on
// slice elements reached through element-pointer locals, not on the
// method receiver. Acquire/release pairing keys on the field's owning
// named type, so pipe.open's `s.flags = ...` pairs with pipe.close's
// `p.Put(s.flags)`.
type stage struct {
	flags *vector.Vector
	out   *vector.Batch
	leak  *vector.Vector
}

type pipe struct {
	p      *vector.Pool
	stages []stage
}

func (pp *pipe) open() {
	for i := range pp.stages {
		s := &pp.stages[i]
		s.flags = pp.p.Get(vector.Bool, 16)
		s.out = pp.p.GetBatch([]vector.Type{vector.Int64}, 16)
		s.leak = pp.p.Get(vector.Int64, 16) // want `pooled Get stored in stage.leak is never released`
	}
}

func (pp *pipe) close() {
	for i := range pp.stages {
		s := &pp.stages[i]
		pp.p.Put(s.flags)
		pp.p.PutBatch(s.out)
	}
}

// admitRaw stores a live operator batch into a recycler-destined result:
// a finding.
func admitRaw(res *catalog.Result, b *vector.Batch) {
	res.Batches = append(res.Batches, b) // want `non-clone appended to catalog.Result.Batches`
}

// admitClone deep-clones before admission: sanctioned.
func admitClone(res *catalog.Result, b *vector.Batch) {
	res.Batches = append(res.Batches, b.Clone())
}

// admitOwned appends memory it owns, with justification.
func admitOwned(res *catalog.Result) {
	b := vector.NewBatch([]vector.Type{vector.Int64}, 16)
	//recycledb:clone-ok — freshly allocated, never pooled
	res.Batches = append(res.Batches, b)
}

// emitOp mirrors the typed-emission aggregators: the pooled output batch
// the emission kernels grow into is acquired in Open and released in
// Close. Sanctioned.
type emitOp struct {
	p   *vector.Pool
	out *vector.Batch
}

func (o *emitOp) Open() {
	o.out = o.p.GetBatch([]vector.Type{vector.Int64, vector.Float64}, 16)
}

func (o *emitOp) Close() { o.p.PutBatch(o.out) }

// emitLeakOp acquires emission scratch in Open but its Close forgets the
// release: a finding.
type emitLeakOp struct {
	p   *vector.Pool
	out *vector.Batch
}

func (o *emitLeakOp) Open() {
	o.out = o.p.GetBatch([]vector.Type{vector.Int64}, 16) // want `pooled GetBatch stored in emitLeakOp.out is never released`
}

func (o *emitLeakOp) Close() {}

// directory mirrors a blocking operator's state: an arena grown in place
// through Pool.ReserveBatch, plain slices drawn from the pool's typed slice
// pools, accumulators grown through Pool.Grow, and ordinals in a
// package-level slice pool. Its close returns every one: sanctioned.
type directory struct {
	p     *vector.Pool
	arena *vector.Batch
	hash  []uint64
	next  []int32
	acc   vector.Vector
	ords  []ordinal
}

type ordinal struct{ morsel, row int64 }

var ordinals vector.Slices[ordinal]

func (d *directory) build(n int) {
	d.arena = d.p.GetBatch([]vector.Type{vector.Int64}, 16)
	d.p.ReserveBatch(d.arena, n)
	d.hash = d.p.U64.Reserve(d.hash, n)
	d.next = d.p.I32.Get(n)[:n]
	d.p.Grow(&d.acc, n)
	d.ords = ordinals.Grow(d.ords, n)
}

func (d *directory) close() {
	d.p.PutBatch(d.arena)
	d.p.U64.Put(d.hash)
	d.p.I32.Put(d.next)
	d.p.Put(&d.acc)
	ordinals.Put(d.ords)
}

// leakyDirectory grows state through the pool and its close forgets it:
// one finding per slot.
type leakyDirectory struct {
	p     *vector.Pool
	arena *vector.Batch
	hash  []uint64
	order []int32
	acc   vector.Vector
	ords  []ordinal
	kept  []int32
}

func (d *leakyDirectory) build(n int) {
	d.arena = vector.NewBatch([]vector.Type{vector.Int64}, 16)
	d.p.ReserveBatch(d.arena, n)                 // want `pooled ReserveBatch stored in leakyDirectory.arena is never released`
	d.hash = d.p.U64.Reserve(d.hash, n)          // want `pooled Reserve stored in leakyDirectory.hash is never released`
	d.order = append(d.p.I32.Get(n), 0)          // want `pooled Get stored in leakyDirectory.order is never released`
	d.p.Grow(&d.acc, n)                          // want `pooled Grow stored in leakyDirectory.acc is never released`
	d.ords = ordinals.Reserve(d.ords[:0], n)[:n] // want `pooled Reserve stored in leakyDirectory.ords is never released`
	d.kept = d.p.I32.Get(n)
}

func (d *leakyDirectory) close() {
	d.p.I32.Put(d.kept)
}
