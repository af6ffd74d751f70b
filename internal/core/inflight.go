package core

import (
	"context"
	"time"

	"recycledb/internal/vector"
)

// In-flight coordination: when multiple concurrently executing queries share
// a subtree whose result is being materialized, "the recycler stalls all but
// one until it has either finished materializing the result, or decides not
// to materialize" (§V). The wait is bounded (Config.StallTimeout) to break
// the cross-query deadlock the unbounded rule admits — two queries can each
// produce a result the other stalls on, and a pipelined store finishes only
// when its whole query does; on timeout the waiter recomputes.
//
// Beyond the paper, the producer hands its materialized batches to the
// waiters directly through the inflight record: when K identical queries
// arrive concurrently, one computes and K-1 replay the producer's result
// even if the cache declined to admit it (admission is a policy decision
// about the future; the waiters' demand already happened). The handoff is
// cancellation-safe: a canceled producer closes its pipeline, which fires
// the store's cancel callback, which wakes every waiter empty-handed so
// each falls back to recomputation (and one of them becomes the next
// producer).

// inflight tracks one in-progress materialization. The registration itself
// (Node.inflight) is guarded by the node mutex; the result fields are
// written before done is closed and read only after it closes.
type inflight struct {
	done chan struct{}
	// The produced result, for direct handoff to waiters. nil batches
	// means the producer finished without a shareable result (canceled,
	// speculation aborted, build failed).
	batches []*vector.Batch
	rows    int64
	size    int64
	// snap is the producer's snapshot tag, so waiters can reject a
	// handed-off result computed at another data epoch.
	snap map[string]TableSnap
}

// BeginInflight registers the calling query as the producer of node n's
// materialization. It returns true if the caller is the producer, false if
// another query already is (the caller should stall-and-reuse instead).
func (r *Recycler) BeginInflight(n *Node) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inflight != nil {
		return false
	}
	n.inflight = &inflight{done: make(chan struct{})}
	return true
}

// Inflight reports whether node n currently has an in-flight producer.
func (r *Recycler) Inflight(n *Node) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight != nil
}

// FinishInflight marks the materialization finished with no shareable
// result (canceled, speculation aborted, build failed) and wakes all
// waiters; each falls back to the cache lookup and then recomputation.
func (r *Recycler) FinishInflight(n *Node) {
	r.finishInflight(n, nil, 0, 0, nil)
}

// FinishInflightShared marks the materialization finished and hands the
// materialized batches to the waiters directly, whether or not the cache
// admitted them. The batches must not be mutated afterwards. snap tags the
// result's data epoch (nil = version-agnostic).
func (r *Recycler) FinishInflightShared(n *Node, batches []*vector.Batch, rows, size int64, snap map[string]TableSnap) {
	r.finishInflight(n, batches, rows, size, snap)
}

func (r *Recycler) finishInflight(n *Node, batches []*vector.Batch, rows, size int64, snap map[string]TableSnap) {
	n.mu.Lock()
	infl := n.inflight
	if infl == nil {
		n.mu.Unlock()
		return
	}
	infl.batches, infl.rows, infl.size, infl.snap = batches, rows, size, snap
	close(infl.done)
	n.inflight = nil
	n.mu.Unlock()
}

// WaitInflightCtx blocks until n's in-flight materialization completes, the
// timeout elapses or ctx is done, then returns the (pinned) cache entry if
// the result is available. ok=false means the waiter should recompute; a
// canceled or expired context wakes the stalled query immediately (the
// caller's recompute fallback then aborts on the same context at its first
// batch boundary). If the producer's result did not reach the cache but was
// published through the direct handoff, the returned entry is an ephemeral
// (unpinned, uncached) wrapper around the shared batches; Release on it is
// a no-op.
func (r *Recycler) WaitInflightCtx(ctx context.Context, n *Node, timeout time.Duration) (*Entry, bool) {
	n.mu.Lock()
	infl := n.inflight
	n.mu.Unlock()
	if infl != nil {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-infl.done:
		case <-ctx.Done():
			return nil, false
		case <-t.C:
			return nil, false
		}
	}
	if e := r.Cached(n); e != nil {
		return e, true
	}
	if infl != nil && infl.batches != nil {
		r.stats.inflightShared.Add(1)
		return &Entry{Node: n, Batches: infl.batches, Size: infl.size,
			Rows: infl.rows, Snap: infl.snap}, true
	}
	return nil, false
}
