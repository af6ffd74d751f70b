package vector

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Pool recycles the memory operators work in across queries: vector
// payloads, and the plain slices of the blocking operators' hash
// directories, sort orders and accumulators. It is one typed slice pool
// (Slices) per element type; a vector's payload is just a pooled slice, so
// a vector drawn with Get and returned with Put, and an arena grown by
// Reserve, go through the same buckets as a join's chain array.
//
// Operators draw per-batch scratch in Open (or lazily in Next) and return
// it in Close, so steady-state Next calls run without heap allocation.
// Blocking state — join arenas and directories, group directories and
// accumulators, sort arenas and orders — grows through Reserve, which
// doubles into a pooled slice and hands the outgrown one back, and is
// returned in Close, so a repeated query rebuilds its state in memory the
// previous one released instead of in fresh garbage.
//
// Ownership rules (see README "Batch pooling"):
//
//   - Only the Get/GetBatch/Reserve caller may Put a slice or vector back,
//     exactly once, and must not touch it afterwards. Reserve and Put take
//     slices the caller owns outright: drawn from the pool or allocated by
//     the caller, never storage someone else reads (a table column, a
//     cached result, another operator's batch).
//   - Batches handed downstream by Next remain owned by the producing
//     operator; consumers must not Put them.
//   - Results retained beyond a Next call (recycler cache admissions,
//     materialized Results) are deep Clones that own fresh, unpooled
//     memory — the recycler never holds pooled storage, so cache
//     correctness and byte accounting are untouched by pooling.
//
// The zero Pool is ready to use and safe for concurrent use.
type Pool struct {
	I64 Slices[int64] // Int64 and Date payloads, avg counts
	F64 Slices[float64]
	Str Slices[string]
	B   Slices[bool]   // Bool payloads, min/max set bits
	U64 Slices[uint64] // row and group hashes
	I32 Slices[int32]  // directory buckets and chains, group ids, orders
}

// Slices pools []T by power-of-two capacity class: a Get is satisfied by
// any previously returned slice of at least the requested capacity. Each
// class is a sync.Pool holding a pointer to the backing array (the class
// fixes the capacity), so Get and Put allocate nothing. The pool is
// contention-free under intra-query parallelism: a sync.Pool is sharded per
// P, so same-class Get/Put from concurrent pipeline workers stays lock-free
// on the fast path, and classes are padded onto distinct cache lines so
// workers hammering adjacent classes do not false-share the pool headers.
// pool_test.go asserts throughput does not collapse when GOMAXPROCS workers
// share one pool.
//
// T must hold no pointers other than strings; string payloads are cleared
// on Put so a pooled slice never pins the strings it used to hold.
type Slices[T any] struct {
	classes [poolMaxClass - poolMinClass + 1]paddedPool
}

// paddedPool rounds each class up to its own cache lines (128 bytes covers
// the common 64B line and 128B prefetch pairs).
type paddedPool struct {
	sync.Pool
	_ [(128 - unsafe.Sizeof(sync.Pool{})%128) % 128]byte
}

const (
	// poolMinClass..poolMaxClass bound the pooled capacity classes
	// (2^5 = 32 .. 2^21 = 2Mi elements); outside the range slices are
	// allocated and dropped normally.
	poolMinClass = 5
	poolMaxClass = 21
)

// sizeClass returns the class whose slices hold at least capacity elements.
func sizeClass(capacity int) int {
	if capacity <= 1 {
		return poolMinClass
	}
	return max(bits.Len(uint(capacity-1)), poolMinClass) // ceil(log2(capacity))
}

// Get returns an empty slice with capacity at least n, reusing a pooled
// one when available. Its elements beyond the length hold stale values.
func (p *Slices[T]) Get(n int) []T {
	c := sizeClass(n)
	if c > poolMaxClass {
		return make([]T, 0, n)
	}
	if x := p.classes[c-poolMinClass].Get(); x != nil {
		return unsafe.Slice((*T)(x.(unsafe.Pointer)), 1<<c)[:0]
	}
	return make([]T, 0, 1<<c)
}

// Put returns s's backing array to the pool. Arrays whose capacity falls
// outside the pooled classes are dropped.
func (p *Slices[T]) Put(s []T) {
	capacity := cap(s)
	// Floor class: every array in class c holds at least 1<<c elements.
	c := bits.Len(uint(capacity)) - 1
	if capacity <= 0 || c < poolMinClass || c > poolMaxClass {
		return
	}
	if _, ok := any((*T)(nil)).(*string); ok {
		clear(s[:capacity])
	}
	p.classes[c-poolMinClass].Put(unsafe.Pointer(unsafe.SliceData(s)))
}

// Reserve returns s with room for n more elements: s itself when its
// capacity suffices, otherwise a pooled slice of at least twice that
// capacity holding s's elements, with s's old array put back. Growing by
// doubling through the pool is how blocking state grows: the copies
// amortize to one per element, and the outgrown arrays serve the next
// query instead of the garbage collector.
func (p *Slices[T]) Reserve(s []T, n int) []T {
	need := len(s) + n
	if need <= cap(s) {
		return s
	}
	t := append(p.Get(max(need, 2*cap(s))), s...)
	p.Put(s)
	return t
}

// Grow extends s by n zero elements, reserving through the pool.
func (p *Slices[T]) Grow(s []T, n int) []T { return Extend(p.Reserve(s, n), n) }

// Extend extends s by n zero elements and returns the grown slice.
// Reserving length up front lets gather kernels write by index instead of
// appending per element, which keeps the inner loops free of the len/cap
// checks that block auto-vectorization. The explicit in-capacity reslice
// (rather than relying on the compiler recognizing append(s, make(...)...))
// keeps the in-capacity path allocation-free even in instrumented builds
// (-race), where that optimization is disabled — the zero-alloc contracts
// run there.
func Extend[T any](s []T, n int) []T {
	if l := len(s); l+n <= cap(s) {
		s = s[:l+n]
		clear(s[l:])
		return s
	}
	return append(s, make([]T, n)...)
}

// Get returns an empty vector of type t with capacity at least capacity,
// its payload drawn from the pool.
func (p *Pool) Get(t Type, capacity int) *Vector {
	v := &Vector{Typ: t}
	p.fill(v, capacity)
	return v
}

// fill gives v an empty pooled payload of its type.
func (p *Pool) fill(v *Vector, capacity int) {
	switch v.Typ {
	case Int64, Date:
		v.I64 = p.I64.Get(capacity)
	case Float64:
		v.F64 = p.F64.Get(capacity)
	case String:
		v.Str = p.Str.Get(capacity)
	case Bool:
		v.B = p.B.Get(capacity)
	}
}

// Put returns v's payloads to the pool and leaves v empty. Every payload
// goes back, not only the one its type selects: scratch vectors can be
// retyped between Get and Put (EvalAsScratch).
func (p *Pool) Put(v *Vector) {
	if v == nil {
		return
	}
	p.I64.Put(v.I64)
	p.F64.Put(v.F64)
	p.Str.Put(v.Str)
	p.B.Put(v.B)
	v.I64, v.F64, v.Str, v.B = nil, nil, nil, nil
}

// Reserve makes room for n more rows in v's payload (Slices.Reserve). v
// must own its payload.
func (p *Pool) Reserve(v *Vector, n int) {
	switch v.Typ {
	case Int64, Date:
		v.I64 = p.I64.Reserve(v.I64, n)
	case Float64:
		v.F64 = p.F64.Reserve(v.F64, n)
	case String:
		v.Str = p.Str.Reserve(v.Str, n)
	case Bool:
		v.B = p.B.Reserve(v.B, n)
	}
}

// Grow extends v by n zero rows, reserving through the pool.
func (p *Pool) Grow(v *Vector, n int) {
	p.Reserve(v, n)
	switch v.Typ {
	case Int64, Date:
		v.I64 = Extend(v.I64, n)
	case Float64:
		v.F64 = Extend(v.F64, n)
	case String:
		v.Str = Extend(v.Str, n)
	case Bool:
		v.B = Extend(v.B, n)
	}
}

// GetBatch returns an empty batch with one pooled vector per type.
func (p *Pool) GetBatch(types []Type, capacity int) *Batch {
	vecs := make([]Vector, len(types))
	b := &Batch{Vecs: make([]*Vector, len(types))}
	for i, t := range types {
		v := &vecs[i]
		v.Typ = t
		p.fill(v, capacity)
		b.Vecs[i] = v
	}
	return b
}

// ReserveBatch makes room for n more rows in every vector of b, which must
// own its payloads (an arena from GetBatch).
func (p *Pool) ReserveBatch(b *Batch, n int) {
	for _, v := range b.Vecs {
		p.Reserve(v, n)
	}
}

// PutBatch returns every vector of a batch obtained from GetBatch to the
// pool and neuters the batch.
func (p *Pool) PutBatch(b *Batch) {
	if b == nil {
		return
	}
	for _, v := range b.Vecs {
		p.Put(v)
	}
	b.Vecs = nil
	b.Sel = nil
}
