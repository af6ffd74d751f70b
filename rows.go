package recycledb

import (
	"context"
	"iter"
	"sync"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/rewrite"
	"recycledb/internal/vector"
)

// Rows streams a query's result incrementally, one column-vector batch at a
// time, as the pipeline produces it. Nothing is materialized on the
// caller's behalf — only the intermediates the recycler's benefit metric
// selected are copied, inside the pipeline's store operators.
//
// A Rows must be fully drained (Next until nil) or Closed; otherwise pinned
// cache entries and in-flight registrations leak until GC. Recycler-graph
// annotation (counted costs and cardinalities feeding future store
// decisions) happens when the stream completes; a canceled or abandoned
// query contributes no measurements.
//
// A Rows is a cursor driven by one goroutine at a time, like
// database/sql.Rows — but Close may be called from any goroutine, at any
// moment, concurrently with a Next in flight: lifecycle transitions are
// serialized, so operator scratch, pinned cache entries, and in-flight
// recycler registrations are released exactly once no matter how a close
// races a batch. A concurrent Close blocks until the in-flight Next
// returns; cancel the query's context first to unblock it promptly (that
// is what a serving front end's disconnect/timeout path does).
type Rows struct {
	eng    *Engine
	qctx   context.Context
	schema catalog.Schema
	ectx   *exec.Ctx
	op     exec.Operator
	rw     *rewrite.Rewriter
	rres   *rewrite.Result

	start     time.Time
	execStart time.Time

	// mu serializes the cursor's lifecycle: Next, Close, and the internal
	// fail/finish transitions. It makes abandon-from-another-goroutine (a
	// server reaping a dead connection while its handler is mid-Next) safe:
	// the operator tree is closed exactly once, never concurrently with an
	// executing Next.
	mu       sync.Mutex
	stats    QueryStats    // guarded by mu
	rows     int           // guarded by mu
	dense    *vector.Batch // guarded by mu; compaction buffer for selective batches
	err      error         // guarded by mu
	done     bool          // guarded by mu; end of stream reached (operator closed, graph annotated)
	closed   bool          // guarded by mu; Close called before end of stream (operator closed)
	released bool          // guarded by mu; statement slot given back to the engine's worker budget
}

// releaseLocked returns the statement's slot in the engine's parallelism
// budget. Callers hold mu.
func (r *Rows) releaseLocked() {
	if !r.released {
		r.released = true
		r.eng.endStatement()
	}
}

// Schema returns the result schema.
func (r *Rows) Schema() catalog.Schema { return r.schema }

// Next returns the next batch, or (nil, nil) at end of stream. The batch is
// only valid until the following Next call; callers that retain batches
// must Clone them (Collect does). ctx is checked at every batch boundary in
// every operator of the pipeline, so cancellation stops even a
// multi-million-row scan within one vector; nil ctx falls back to the
// context the query started with.
func (r *Rows) Next(ctx context.Context) (*Batch, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	if r.done || r.closed {
		return nil, nil
	}
	if ctx == nil {
		ctx = r.qctx
	}
	r.ectx.Context = ctx
	b, err := r.op.Next(r.ectx)
	if err != nil {
		r.failLocked(wrapRunError(err))
		return nil, r.err
	}
	if b == nil {
		return nil, r.finishLocked()
	}
	r.rows += b.Len()
	if b.Sel != nil {
		// Pipelines may end in a selective operator (a top-level filter).
		// The public contract hands out dense batches, so the selection is
		// compacted column-wise into a cursor-owned buffer here, at the
		// API boundary — internal operators keep exchanging selections.
		if r.dense == nil {
			r.dense = vector.NewBatch(b.Types(), b.Len())
		}
		r.dense.CopyFrom(b)
		b = r.dense
	}
	return b, nil
}

// failLocked records err and releases the pipeline (store cancellations and
// cache unpins fire inside the operators' Close). Callers hold mu.
func (r *Rows) failLocked(err error) {
	r.err = err
	r.closed = true
	r.op.Close(r.ectx)
	r.releaseLocked()
}

// finishLocked completes the stream: the recycler graph is annotated with
// the counted operator costs and cardinalities, the statistics are
// finalized, and the operator tree is closed. Callers hold mu.
func (r *Rows) finishLocked() error {
	r.done = true
	defer r.releaseLocked()
	execTime := time.Since(r.execStart)
	if err := r.op.Close(r.ectx); err != nil {
		r.err = wrapRunError(err)
		return r.err
	}
	r.rw.Annotate(r.rres)
	r.stats.Execution = execTime
	r.stats.Total = time.Since(r.start)
	r.stats.Materialized = r.rres.Committed()
	r.stats.Rows = r.rows
	return nil
}

// Close releases the query without draining it. Abandoning a stream mid-way
// cancels any in-progress materializations and skips graph annotation; it
// is a no-op after end of stream. Close is idempotent and safe to call from
// a goroutine other than the one driving Next; it serializes behind an
// in-flight Next (cancel the query's context to unblock one promptly).
func (r *Rows) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || r.closed {
		return nil
	}
	r.closed = true
	defer r.releaseLocked()
	return r.op.Close(r.ectx)
}

// Err returns the first error hit by Next, if any.
func (r *Rows) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stats reports what the recycler planned for this query immediately, and
// the measured times, row count, and materialization count once the stream
// has completed.
func (r *Rows) Stats() QueryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// All adapts the stream to a Go 1.23 range-over-func iterator:
//
//	for b, err := range rows.All(ctx) {
//	        if err != nil { ... }
//	        use(b) // valid for this iteration only
//	}
//
// Breaking out of the loop closes the query.
func (r *Rows) All(ctx context.Context) iter.Seq2[*Batch, error] {
	return func(yield func(*Batch, error) bool) {
		for {
			b, err := r.Next(ctx)
			if err != nil {
				yield(nil, err)
				return
			}
			if b == nil {
				return
			}
			if !yield(b, nil) {
				r.Close()
				return
			}
		}
	}
}

// Collect drains the stream into a fully materialized Result, reproducing
// the pre-streaming Execute contract (batches are deep-copied, statistics
// attached).
func (r *Rows) Collect() (*Result, error) {
	out := &catalog.Result{Schema: r.schema}
	for {
		b, err := r.Next(nil)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if b.Len() > 0 {
			out.Batches = append(out.Batches, b.Clone())
		}
	}
	res := &Result{Schema: r.schema, Stats: r.Stats(), res: out}
	res.Batches = append(res.Batches, out.Batches...)
	return res, nil
}
