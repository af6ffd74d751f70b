package exec

import (
	"context"
	"time"

	"recycledb/internal/vector"
)

// StoreSpec tells a Store operator what to do with the tuple flow. The
// recycler supplies the callbacks; exec stays independent of recycler
// internals.
type StoreSpec struct {
	// Speculative indicates the store has not been pre-decided: it
	// buffers while OnBatch estimates benefit, and may cancel. A
	// non-speculative store was selected for materialization during
	// rewriting (history mode) and always commits.
	Speculative bool
	// OnBatch is consulted after each buffered batch in speculative mode
	// with the producer's progress and the buffered bytes; returning false
	// cancels buffering (the store reverts to passthrough, §II). The
	// subtree has handed up a batch, so the callback may read the rows its
	// nodes counted (Build's stats). Progress and the counts inside a
	// fragment advance only when it finishes a unit of input (a morsel), so
	// a store sees the same sequence of them at every worker count.
	OnBatch func(progress float64, bufferedBytes int64) bool
	// OnComplete receives the fully buffered result at end-of-stream and
	// takes ownership of the batches (cache admission happens there).
	OnComplete func(batches []*vector.Batch, rows int64, bytes int64)
	// OnCancel is invoked when speculation cancels buffering.
	OnCancel func()
}

// Store tees its child's tuple flow: batches pass through unchanged while
// (deep copies) accumulate in a buffer destined for the recycler cache. It
// implements the paper's store operator with its three behaviours: pass
// along, buffer (speculation), or materialize (§II, §III-D).
type Store struct {
	base
	Child Operator
	Spec  StoreSpec

	buffering bool
	buf       []*vector.Batch
	bufBytes  int64
	bufRows   int64
	completed bool
	cancelled bool
}

// NewStore wraps child with a store operator.
func NewStore(child Operator, spec StoreSpec) *Store {
	return &Store{base: base{schema: child.Schema()}, Child: child, Spec: spec}
}

// Open implements Operator.
func (s *Store) Open(ctx *Ctx) error {
	s.buffering = true
	s.buf = nil
	s.bufBytes = 0
	s.bufRows = 0
	s.completed = false
	s.cancelled = false
	return s.Child.Open(ctx)
}

// Next implements Operator.
func (s *Store) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	b, err := s.Child.Next(ctx)
	if err != nil {
		return nil, err
	}
	if b == nil {
		if s.buffering && !s.completed {
			s.completed = true
			if s.Spec.OnComplete != nil {
				s.Spec.OnComplete(s.buf, s.bufRows, s.bufBytes)
			}
			s.buf = nil
		}
		return nil, nil
	}
	// Counted before OnBatch, which may read the count.
	s.rows += int64(b.Len())
	if s.buffering {
		s.buf = append(s.buf, b.Clone())
		s.bufBytes += b.Bytes()
		s.bufRows += int64(b.Len())
		if s.Spec.Speculative && s.Spec.OnBatch != nil {
			if !s.Spec.OnBatch(s.Child.Progress(), s.bufBytes) {
				// Not beneficial: stop buffering, drop copies, pass
				// tuples along untouched from now on.
				s.buffering = false
				s.buf = nil
				s.cancelled = true
				if s.Spec.OnCancel != nil {
					s.Spec.OnCancel()
				}
			}
		}
	}
	return b, nil
}

// Close implements Operator. If the store never completed (the query above
// stopped early, failed, or never opened this pipeline), the buffered prefix
// is discarded and the cancellation callback fires so the recycler can
// release the in-flight registration.
func (s *Store) Close(ctx *Ctx) error {
	if !s.completed && !s.cancelled {
		s.buf = nil
		s.cancelled = true
		if s.Spec.OnCancel != nil {
			s.Spec.OnCancel()
		}
	}
	return s.Child.Close(ctx)
}

// Progress implements Operator.
func (s *Store) Progress() float64 { return s.Child.Progress() }

// WaitSpec configures a WaitReuse operator: another in-flight query is
// currently materializing this node's result; stall until it finishes and
// reuse it, or fall back to recomputation after Timeout (bounded stalling
// breaks the deadlock of two queries each waiting on a result the other's
// pipeline is producing).
type WaitSpec struct {
	// Wait blocks until the in-flight materialization completes, the
	// timeout elapses, or ctx is canceled. It returns replay batches and a
	// column mapping on success, or ok=false to trigger the fallback.
	Wait func(ctx context.Context, timeout time.Duration) (batches []*vector.Batch, outIdx []int, release func(), ok bool)
	// Timeout bounds the stall.
	Timeout time.Duration
	// OnOutcome, if set, observes whether the wait ended in reuse.
	OnOutcome func(reused bool)
}

// WaitReuse stalls on an in-flight materialization of the same subtree
// (the paper: "the recycler stalls all but one", §V) and then replays the
// cached result, or executes its fallback child if the wait fails.
//
// The stall is deferred to the first Next call rather than Open: Open
// cascades through the whole operator tree before execution starts, and
// blocking there would prevent this query's own store operators from ever
// producing, turning crossed in-flight registrations between two queries
// into guaranteed timeout deadlocks.
type WaitReuse struct {
	base
	Fallback Operator
	Spec     WaitSpec

	inner Operator
}

// NewWaitReuse builds a wait-then-reuse operator with the given fallback.
func NewWaitReuse(fallback Operator, spec WaitSpec) *WaitReuse {
	return &WaitReuse{base: base{schema: fallback.Schema()}, Fallback: fallback, Spec: spec}
}

// Open implements Operator: a no-op; the wait and the inner Open happen
// lazily at the first Next.
func (w *WaitReuse) Open(ctx *Ctx) error {
	w.inner = nil
	return nil
}

// resolve performs the stall and opens the chosen input.
func (w *WaitReuse) resolve(ctx *Ctx) error {
	batches, outIdx, release, ok := w.Spec.Wait(ctx.goCtx(), w.Spec.Timeout)
	if ok {
		w.inner = NewCacheScan(w.schema, batches, outIdx, release)
	} else {
		w.inner = w.Fallback
	}
	if w.Spec.OnOutcome != nil {
		w.Spec.OnOutcome(ok)
	}
	return w.inner.Open(ctx)
}

// Next implements Operator.
func (w *WaitReuse) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	if w.inner == nil {
		if err := w.resolve(ctx); err != nil {
			return nil, err
		}
	}
	b, err := w.inner.Next(ctx)
	if b != nil {
		w.rows += int64(b.Len())
	}
	return b, err
}

// Close implements Operator. The fallback subtree is closed even when the
// wait succeeded and it never opened: store operators inside it must get
// their cancellation callbacks so in-flight registrations are released.
func (w *WaitReuse) Close(ctx *Ctx) error {
	var err error
	if w.inner != nil {
		err = w.inner.Close(ctx)
	}
	if w.inner != w.Fallback {
		if e2 := w.Fallback.Close(ctx); err == nil {
			err = e2
		}
	}
	return err
}

// Progress implements Operator.
func (w *WaitReuse) Progress() float64 {
	if w.inner == nil {
		return 0
	}
	return w.inner.Progress()
}
