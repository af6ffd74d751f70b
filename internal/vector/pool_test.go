package vector

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestPoolReusesByTypeAndClass(t *testing.T) {
	var p Pool
	v := p.Get(Int64, 1000)
	if cap(v.I64) < 1000 {
		t.Fatalf("capacity %d < requested 1000", cap(v.I64))
	}
	v.AppendInt64(7)
	payload := unsafe.SliceData(v.I64)
	p.Put(v)
	if v.I64 != nil {
		t.Fatal("Put must leave the vector without a payload")
	}
	got := p.Get(Int64, 1000)
	if unsafe.SliceData(got.I64) != payload {
		t.Skip("sync.Pool dropped the entry (GC or race mode); nothing to assert")
	}
	if got.Len() != 0 {
		t.Fatalf("pooled vector not reset: len=%d", got.Len())
	}
	// Date shares the int64 payload class.
	p.Put(got)
	if d := p.Get(Date, 600); unsafe.SliceData(d.I64) != payload {
		t.Skip("sync.Pool dropped the entry (GC or race mode); nothing to assert")
	}
}

func TestPoolClearsStringPayloads(t *testing.T) {
	var p Pool
	v := p.Get(String, 64)
	v.AppendString("pinned")
	s := v.Str[:cap(v.Str)]
	p.Put(v)
	// Whether or not the same array comes back, the Put must have cleared
	// it so old strings are unreachable.
	for i, x := range s {
		if x != "" {
			t.Fatalf("string slot %d still pins %q after Put", i, x)
		}
	}
}

// TestSlicesReserveDoublesThroughPool pins Reserve's contract: a slice
// with room comes back as is; an outgrown one is copied into a pooled
// array of at least twice its capacity and its old array goes back to the
// pool, where the next Get of that class finds it.
func TestSlicesReserveDoublesThroughPool(t *testing.T) {
	var p Slices[int32]
	s := append(p.Get(40), 1, 2, 3) // class 64
	if got := p.Reserve(s, 61); unsafe.SliceData(got) != unsafe.SliceData(s) {
		t.Fatal("Reserve within capacity must return the slice itself")
	}
	old := unsafe.SliceData(s)
	s = p.Reserve(s, 62)
	if cap(s) < 128 || len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Reserve past capacity: len %d cap %d %v, want 3 rows in cap >= 128", len(s), cap(s), s)
	}
	if again := p.Get(64); unsafe.SliceData(again) != old {
		t.Skip("sync.Pool dropped the entry (GC or race mode); nothing more to assert")
	}
	// A request far past double takes the requested size.
	if s = p.Reserve(s, 1000); cap(s) < 1003 {
		t.Fatalf("Reserve(1000) gave cap %d", cap(s))
	}
}

// TestSlicesGrowZeroes checks that Grow's new tail is zero even when the
// pooled array it draws held other values.
func TestSlicesGrowZeroes(t *testing.T) {
	var p Slices[int64]
	dirty := p.Get(32)[:32]
	for i := range dirty {
		dirty[i] = -1
	}
	p.Put(dirty)
	s := p.Grow(nil, 20)
	s = p.Grow(s, 30) // past capacity: copies into a fresh class
	if len(s) != 50 {
		t.Fatalf("len %d, want 50", len(s))
	}
	for i, x := range s {
		if x != 0 {
			t.Fatalf("grown slot %d = %d, want 0", i, x)
		}
	}
}

func TestPoolBatchRoundTrip(t *testing.T) {
	var p Pool
	types := []Type{Int64, Float64, String, Bool}
	b := p.GetBatch(types, 128)
	if b.Width() != 4 || b.Len() != 0 {
		t.Fatalf("fresh batch: width=%d len=%d", b.Width(), b.Len())
	}
	for i, typ := range types {
		if b.Vecs[i].Typ != typ {
			t.Fatalf("col %d type %v, want %v", i, b.Vecs[i].Typ, typ)
		}
	}
	b.Vecs[0].AppendInt64(1)
	b.Sel = []int32{0}
	p.PutBatch(b)
	if b.Vecs != nil || b.Sel != nil {
		t.Fatal("PutBatch must neuter the batch")
	}
}

func TestPoolOutOfClassSizes(t *testing.T) {
	var p Pool
	// Tiny and giant requests still work; giants are simply not pooled.
	small := p.Get(Bool, 1)
	p.Put(small)
	huge := p.Get(Int64, 1<<24)
	if cap(huge.I64) < 1<<24 {
		t.Fatalf("huge capacity %d", cap(huge.I64))
	}
	p.Put(huge) // dropped silently
}

func TestBatchSelectionSemantics(t *testing.T) {
	b := NewBatch([]Type{Int64, String}, 8)
	for i := 0; i < 6; i++ {
		b.Vecs[0].AppendInt64(int64(i * 10))
		b.Vecs[1].AppendString(fmt.Sprintf("r%d", i))
	}
	b.Sel = []int32{1, 3, 5}
	if b.Len() != 3 || b.PhysLen() != 6 {
		t.Fatalf("Len=%d PhysLen=%d", b.Len(), b.PhysLen())
	}
	if r := b.Row(1); r[0].I64 != 30 || r[1].Str != "r3" {
		t.Fatalf("Row(1) = %v", r)
	}
	// Bytes accounts logical rows only.
	if got, dense := b.Bytes(), b.Clone().Bytes(); got != dense {
		t.Fatalf("selective Bytes=%d, compacted clone Bytes=%d", got, dense)
	}
	c := b.Clone()
	if c.Sel != nil || c.Len() != 3 {
		t.Fatalf("clone: sel=%v len=%d", c.Sel, c.Len())
	}
	for i, want := range []int64{10, 30, 50} {
		if c.Vecs[0].I64[i] != want {
			t.Fatalf("clone row %d = %d, want %d", i, c.Vecs[0].I64[i], want)
		}
	}
	// Reset drops the selection.
	b.Reset()
	if b.Sel != nil || b.Len() != 0 {
		t.Fatal("Reset must clear the selection")
	}
}

func TestGatherKernels(t *testing.T) {
	src := NewBatch([]Type{Int64, Float64, String, Bool}, 8)
	for i := 0; i < 5; i++ {
		src.Vecs[0].AppendInt64(int64(i))
		src.Vecs[1].AppendFloat64(float64(i) / 2)
		src.Vecs[2].AppendString(fmt.Sprintf("v%d", i))
		src.Vecs[3].AppendBool(i%2 == 0)
	}
	// Dense AppendBatch.
	dst := NewBatch(src.Types(), 8)
	dst.AppendBatch(src)
	if dst.Len() != 5 {
		t.Fatalf("dense append: len=%d", dst.Len())
	}
	// Selective AppendBatch compacts.
	sel := &Batch{Vecs: src.Vecs, Sel: []int32{0, 2, 4}}
	dst.Reset()
	dst.AppendBatch(sel)
	if dst.Len() != 3 || dst.Vecs[0].I64[1] != 2 || dst.Vecs[2].Str[2] != "v4" {
		t.Fatalf("selective append: %v %v", dst.Vecs[0].I64, dst.Vecs[2].Str)
	}
	// Range over a selection.
	dst.Reset()
	dst.AppendBatchRange(sel, 1, 3)
	if dst.Len() != 2 || dst.Vecs[0].I64[0] != 2 || dst.Vecs[0].I64[1] != 4 {
		t.Fatalf("selective range: %v", dst.Vecs[0].I64)
	}
	// Index gather (sort order arrays).
	dst.Reset()
	dst.AppendBatchIndex(src, []int32{4, 0, 3})
	if dst.Vecs[0].I64[0] != 4 || dst.Vecs[0].I64[1] != 0 || dst.Vecs[0].I64[2] != 3 {
		t.Fatalf("index gather: %v", dst.Vecs[0].I64)
	}
	if dst.Vecs[3].B[0] != true || dst.Vecs[3].B[2] != false {
		t.Fatalf("index gather bools: %v", dst.Vecs[3].B)
	}
	// CopyFrom = reset + compact.
	dst.CopyFrom(sel)
	if dst.Len() != 3 || dst.Vecs[1].F64[2] != 2 {
		t.Fatalf("CopyFrom: len=%d %v", dst.Len(), dst.Vecs[1].F64)
	}
}

// poolChurn runs one worker's share of a get/put mix over the hot buckets
// a parallel pipeline hits: typed scratch vectors and whole batches.
func poolChurn(p *Pool, ops int) {
	types := []Type{Int64, Float64, String, Bool}
	batchTypes := []Type{Int64, Float64, String}
	for i := 0; i < ops; i++ {
		v := p.Get(types[i%len(types)], 1024)
		p.Put(v)
		if i%8 == 0 {
			b := p.GetBatch(batchTypes, 1024)
			p.PutBatch(b)
		}
	}
}

// TestPoolParallelNoContentionCollapse drives the same total operation
// count through one worker and through GOMAXPROCS workers sharing one
// pool. With the per-P sync.Pool buckets and cache-line padding the
// parallel wall time must not exceed the serial wall time by more than a
// small factor — a pool serializing on a mutex fails this by an order of
// magnitude under 8+ workers. The bound is deliberately loose (2x) to
// stay robust on noisy CI machines; the benchmark below is the precise
// instrument.
func TestPoolParallelNoContentionCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	const totalOps = 400_000
	var p Pool
	poolChurn(&p, totalOps/4) // warm the buckets

	serial := time.Now()
	poolChurn(&p, totalOps)
	serialWall := time.Since(serial)

	var wg sync.WaitGroup
	parallel := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			poolChurn(&p, totalOps/workers)
		}()
	}
	wg.Wait()
	parallelWall := time.Since(parallel)

	if parallelWall > 2*serialWall+10*time.Millisecond {
		t.Fatalf("contention collapse: %d workers took %v for the work one worker does in %v",
			workers, parallelWall, serialWall)
	}
}

// BenchmarkPoolParallelGetPut measures shared-pool scratch churn under
// RunParallel; compare against BenchmarkPoolSerialGetPut with benchstat.
// ns/op staying flat as GOMAXPROCS grows is the no-contention property the
// per-worker pipelines rely on.
func BenchmarkPoolParallelGetPut(b *testing.B) {
	var p Pool
	poolChurn(&p, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v := p.Get(Float64, 1024)
			p.Put(v)
		}
	})
}

// BenchmarkPoolSerialGetPut is the single-goroutine baseline.
func BenchmarkPoolSerialGetPut(b *testing.B) {
	var p Pool
	poolChurn(&p, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := p.Get(Float64, 1024)
		p.Put(v)
	}
}
