package exec

import (
	"context"
	"testing"
	"time"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

func TestStoreMaterializesAndPassesThrough(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("emp", "id", "salary")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	child, _ := Build(ctx, n, nil, nil)

	var got []*vector.Batch
	var gotRows, gotBytes int64
	st := NewStore(child, StoreSpec{
		OnComplete: func(bs []*vector.Batch, rows, bytes int64) {
			got = bs
			gotRows = rows
			gotBytes = bytes
		},
	})
	res, err := Run(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1000 {
		t.Fatalf("passthrough rows = %d", res.Rows())
	}
	if gotRows != 1000 || len(got) == 0 {
		t.Fatalf("materialized rows = %d batches = %d", gotRows, len(got))
	}
	if gotBytes <= 0 {
		t.Fatal("materialized bytes not accounted")
	}
	total := 0
	for _, b := range got {
		total += b.Len()
	}
	if total != 1000 {
		t.Fatalf("buffered total = %d", total)
	}
}

func TestStoreBuffersAreDeepCopies(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("emp", "id")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	child, _ := Build(ctx, n, nil, nil)
	var got []*vector.Batch
	st := NewStore(child, StoreSpec{
		OnComplete: func(bs []*vector.Batch, rows, bytes int64) { got = bs },
	})
	if _, err := Run(ctx, st); err != nil {
		t.Fatal(err)
	}
	// Mutate the table storage; buffered copies must be unaffected.
	emp, _ := cat.Table("emp")
	stor := emp.Snapshot().Col(0) // aliases table storage
	saved := stor.I64[0]
	stor.I64[0] = -999
	if got[0].Vecs[0].I64[0] != saved {
		t.Fatal("store buffered an alias of table storage")
	}
	stor.I64[0] = saved
}

func TestStoreSpeculativeCancel(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("emp", "id")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Cat: cat, VectorSize: 100}
	child, _ := Build(ctx, n, nil, nil)
	calls := 0
	cancelled := false
	completed := false
	var st *Store
	st = NewStore(child, StoreSpec{
		Speculative: true,
		OnBatch: func(progress float64, buffered int64) bool {
			calls++
			// The callback may price the subtree: the store has already
			// counted the batch it is buffering.
			if st.RowsOut() != child.RowsOut() {
				t.Errorf("batch %d: store counted %d rows, its input %d", calls, st.RowsOut(), child.RowsOut())
			}
			return calls < 3 // cancel on third batch
		},
		OnComplete: func([]*vector.Batch, int64, int64) { completed = true },
		OnCancel:   func() { cancelled = true },
	})
	res, err := Run(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1000 {
		t.Fatalf("passthrough rows = %d after cancel", res.Rows())
	}
	if !cancelled || completed {
		t.Fatalf("cancelled=%v completed=%v", cancelled, completed)
	}
	if calls != 3 {
		t.Fatalf("OnBatch calls = %d", calls)
	}
}

func TestStoreSpeculativeCommit(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("dept", "name")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	child, _ := Build(ctx, n, nil, nil)
	completed := false
	st := NewStore(child, StoreSpec{
		Speculative: true,
		OnBatch:     func(float64, int64) bool { return true },
		OnComplete: func(bs []*vector.Batch, rows, bytes int64) {
			completed = true
			if rows != 4 {
				t.Errorf("rows = %d", rows)
			}
		},
	})
	if _, err := Run(ctx, st); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("speculative store did not commit at EOF")
	}
}

func TestStoreEarlyCloseCancels(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("emp", "id")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Cat: cat, VectorSize: 100}
	child, _ := Build(ctx, n, nil, nil)
	cancelled, completed := false, false
	st := NewStore(child, StoreSpec{
		OnComplete: func([]*vector.Batch, int64, int64) { completed = true },
		OnCancel:   func() { cancelled = true },
	})
	// Pull only one batch, then close (as a LIMIT above would).
	if err := st.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if completed || !cancelled {
		t.Fatalf("early close: completed=%v cancelled=%v", completed, cancelled)
	}
}

func TestCacheScanProjectsColumns(t *testing.T) {
	// Cached result has 3 columns; scan replays columns 2 and 0.
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.String, vector.Float64}, 2)
	b.Vecs[0].AppendInt64(1)
	b.Vecs[0].AppendInt64(2)
	b.Vecs[1].AppendString("x")
	b.Vecs[1].AppendString("y")
	b.Vecs[2].AppendFloat64(1.5)
	b.Vecs[2].AppendFloat64(2.5)
	released := false
	cs := NewCacheScan(nil, []*vector.Batch{b}, []int{2, 0}, func() { released = true })
	ctx := NewCtx(nil)
	if err := cs.Open(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := cs.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Vecs[0].F64[1] != 2.5 || out.Vecs[1].I64[0] != 1 {
		t.Fatalf("projected wrong: %+v", out)
	}
	if nxt, _ := cs.Next(ctx); nxt != nil {
		t.Fatal("expected EOF")
	}
	cs.Close(ctx)
	if !released {
		t.Fatal("release not called")
	}
}

func TestWaitReuseSuccess(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.Int64}, 1)
	b.Vecs[0].AppendInt64(7)
	spec := WaitSpec{
		Timeout: time.Second,
		Wait: func(ctx context.Context, timeout time.Duration) ([]*vector.Batch, []int, func(), bool) {
			return []*vector.Batch{b}, []int{0}, nil, true
		},
	}
	fallback := &failingOp{}
	w := NewWaitReuse(fallback, spec)
	ctx := NewCtx(nil)
	if err := w.Open(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := w.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Vecs[0].I64[0] != 7 {
		t.Fatalf("reused value = %v", out.Vecs[0].I64)
	}
	w.Close(ctx)
}

func TestWaitReuseFallback(t *testing.T) {
	cat := testCatalog()
	n := plan.NewScan("dept", "name")
	if err := n.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(cat)
	fb, _ := Build(ctx, n, nil, nil)
	var sawReuse *bool
	spec := WaitSpec{
		Timeout: time.Millisecond,
		Wait: func(ctx context.Context, timeout time.Duration) ([]*vector.Batch, []int, func(), bool) {
			return nil, nil, nil, false
		},
		OnOutcome: func(reused bool) { sawReuse = &reused },
	}
	w := NewWaitReuse(fb, spec)
	res, err := Run(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 4 {
		t.Fatalf("fallback rows = %d", res.Rows())
	}
	if sawReuse == nil || *sawReuse {
		t.Fatal("outcome should report fallback")
	}
}

// failingOp errors if it is ever opened.
type failingOp struct{ base }

func (f *failingOp) Open(ctx *Ctx) error                  { panic("fallback must not open") }
func (f *failingOp) Next(ctx *Ctx) (*vector.Batch, error) { return nil, nil }
func (f *failingOp) Close(ctx *Ctx) error                 { return nil }
func (f *failingOp) Progress() float64                    { return 0 }
