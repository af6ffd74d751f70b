package exec

import (
	"sync"
	"sync/atomic"

	"recycledb/internal/vector"
)

// pipeWorker is one worker of a parallel pipeline fragment.
type pipeWorker struct {
	pipe *fusedPipe
	wctx Ctx // copy of the statement Ctx; maps shared read-only
	// local buffers the current morsel's copied output batches (the pipe's
	// sink appends here).
	local []*vector.Batch
}

// Exchange runs N fused pipes over the morsel source and merges their
// outputs back into one stream in morsel order — the fragment's
// deterministic merge point. Each worker steps its pipe, which claims
// morsels in index order (bounded ahead of the merge cursor by the source
// window); the sink buffers a morsel's output batches as compacted pool
// copies, and the pipe's morsel-end hook publishes them — with the rows the
// pipe counted over the morsel — to the morsel's slot once held join rows
// are flushed. The consumer walks slots in order, so the merged stream is
// the exact batch sequence a single pipe would produce, and it collects a
// slot's rows as it passes the slot, so the fragment's counts advance as a
// single pipe's would.
type Exchange struct {
	*fragRoot
	workers []*pipeWorker
	types   []vector.Type

	started  bool
	closed   bool
	stopping atomic.Bool
	wg       sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	slots    []exSlot
	mergeIdx int
	cursor   int
	err      error

	cur *vector.Batch // batch handed out by the previous Next
}

type exSlot struct {
	batches []*vector.Batch
	rows    []int64 // the rows each spine node counted over the morsel
	done    bool
}

// newExchange assembles the ordered merge over pipes.
func newExchange(root *fragRoot, pipes []*fusedPipe) *Exchange {
	root.sizeCounts(pipes[0])
	x := &Exchange{fragRoot: root, types: root.schema.Types(), slots: make([]exSlot, root.src.count())}
	x.cond = sync.NewCond(&x.mu)
	nodes := len(root.counted)
	rows := make([]int64, len(x.slots)*nodes)
	for i := range x.slots {
		x.slots[i].rows = rows[i*nodes : (i+1)*nodes : (i+1)*nodes]
	}
	for _, p := range pipes {
		w := &pipeWorker{pipe: p}
		// The sink copies each chain batch into an owned, compacted pool
		// batch for the slot buffer, checking teardown per batch. Bound
		// once here so the steady state drive allocates nothing.
		p.sink = func(b *vector.Batch) error {
			if x.stopping.Load() {
				return errFusedStopped
			}
			t := w.wctx.pool().GetBatch(x.types, b.Len())
			t.CopyFrom(b)
			w.local = append(w.local, t)
			return nil
		}
		p.endMorsel = func(m int) { x.publish(w, m) }
		x.workers = append(x.workers, w)
	}
	return x
}

// Open implements Operator: worker pipelines and shared build subplans
// open here, on the consumer goroutine; workers spawn lazily at the first
// Next so an abandoned stream never starts them.
func (x *Exchange) Open(ctx *Ctx) error {
	if err := x.openBuilds(ctx); err != nil {
		return err
	}
	for _, w := range x.workers {
		w.wctx = *ctx
		if err := w.pipe.open(&w.wctx); err != nil {
			return err
		}
	}
	return nil
}

func (x *Exchange) start(ctx *Ctx) {
	x.started = true
	for _, w := range x.workers {
		// Refresh the cancellation context: the consumer may have swapped
		// it between Open and the first pull.
		w.wctx.Context = ctx.Context
		x.wg.Add(1)
		go x.runWorker(w)
	}
}

// runWorker steps the worker's pipe to the end of its morsels.
func (x *Exchange) runWorker(w *pipeWorker) {
	defer x.wg.Done()
	if err := w.pipe.drain(&w.wctx); err != nil {
		releaseBatches(&w.wctx, w.local)
		w.local = nil
		if err != errFusedStopped {
			x.fail(err)
		}
	}
}

// publish is a worker pipe's morsel-end hook: morsel m's (copied) batches
// and the rows the pipe counted over it go to its slot.
func (x *Exchange) publish(w *pipeWorker, m int) {
	x.mu.Lock()
	s := &x.slots[m]
	s.batches, s.done = w.local, true
	w.pipe.takeRows(s.rows)
	x.mu.Unlock()
	w.local = nil
	x.cond.Broadcast()
}

func releaseBatches(ctx *Ctx, bs []*vector.Batch) {
	for _, b := range bs {
		if b != nil {
			ctx.pool().PutBatch(b)
		}
	}
}

func (x *Exchange) fail(err error) {
	x.mu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.mu.Unlock()
	x.src.stop()
	x.cond.Broadcast()
}

// Next implements Operator: the in-order merge. The returned batch is
// owned by the exchange and valid until the following Next (it returns to
// the pool there), per the operator contract.
func (x *Exchange) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	if !x.started {
		x.start(ctx)
	}
	if x.cur != nil {
		ctx.pool().PutBatch(x.cur)
		x.cur = nil
	}
	x.mu.Lock()
	for {
		if x.err != nil {
			err := x.err
			x.mu.Unlock()
			return nil, err
		}
		if x.mergeIdx >= len(x.slots) {
			x.mu.Unlock()
			return nil, nil
		}
		s := &x.slots[x.mergeIdx]
		if x.cursor < len(s.batches) {
			b := s.batches[x.cursor]
			s.batches[x.cursor] = nil
			x.cursor++
			x.mu.Unlock()
			x.cur = b
			x.rows += int64(b.Len())
			return b, nil
		}
		if s.done {
			for i, r := range s.rows {
				x.counted[i] += r
			}
			done := x.mergeIdx
			x.mergeIdx++
			x.cursor = 0
			x.mu.Unlock()
			x.src.advance(done) // release window credit outside x.mu
			x.mu.Lock()
			continue
		}
		x.cond.Wait()
	}
}

// Close implements Operator: stops the morsel source, joins the workers,
// releases buffered batches, and closes worker pipes and shared builds.
func (x *Exchange) Close(ctx *Ctx) error {
	if x.closed {
		return nil
	}
	x.closed = true
	x.stopping.Store(true)
	x.src.stop()
	x.cond.Broadcast()
	if x.started {
		x.wg.Wait()
	}
	if x.cur != nil {
		ctx.pool().PutBatch(x.cur)
		x.cur = nil
	}
	for i := range x.slots {
		releaseBatches(ctx, x.slots[i].batches)
		x.slots[i].batches = nil
	}
	var first error
	for _, w := range x.workers {
		if err := w.pipe.close(&w.wctx); err != nil && first == nil {
			first = err
		}
	}
	return x.closeBuilds(ctx, first)
}

// Progress implements Operator: merged morsels over total (the merge
// advances the source past each one).
func (x *Exchange) Progress() float64 { return x.src.progress() }
