package exec

import (
	"sync"

	"recycledb/internal/catalog"
)

// morselSource splits one base-table scan range into fixed-size row-range
// morsels claimed by pipeline workers. Morsels are claimed strictly in
// index order; when a merge window is configured (ordered exchanges bound
// their reorder buffer with it), a claim blocks while the claimant would
// run more than window morsels ahead of the merge cursor, which bounds the
// batches buffered for in-order emission.
//
// All morsels slice the same statement snapshot, so every worker reads the
// one committed epoch the statement captured, and the per-morsel delete
// bitmap ranges partition the serial scan's exactly.
type morselSource struct {
	snap   *catalog.Snapshot
	lo, hi int // scan bounds (lo nonzero for delta runs, see Ctx.scanStart)
	rows   int // rows per morsel

	mu        sync.Mutex
	cond      *sync.Cond
	next      int // next morsel index to claim
	mergeBase int // first morsel not yet consumed by the merger
	window    int // max morsels claimed ahead of mergeBase (0 = unbounded)
	stopped   bool
}

// newMorselSource builds a source over snapshot rows [lo, hi).
func newMorselSource(snap *catalog.Snapshot, lo, hi, rows, window int) *morselSource {
	s := &morselSource{snap: snap, lo: lo, hi: hi, rows: rows, window: window}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// count returns the total number of morsels.
func (s *morselSource) count() int {
	n := s.hi - s.lo
	if n <= 0 {
		return 0
	}
	return (n + s.rows - 1) / s.rows
}

// bounds returns the row range of morsel m.
func (s *morselSource) bounds(m int) (lo, hi int) {
	lo = s.lo + m*s.rows
	hi = lo + s.rows
	if hi > s.hi {
		hi = s.hi
	}
	return lo, hi
}

// claim hands out the next morsel index, blocking while the window is
// exhausted. ok is false once all morsels are claimed or the source is
// stopped.
func (s *morselSource) claim() (m int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped || s.next >= s.count() {
			return 0, false
		}
		if s.window <= 0 || s.next < s.mergeBase+s.window {
			m = s.next
			s.next++
			return m, true
		}
		s.cond.Wait()
	}
}

// advance moves the merge cursor past morsel m, releasing window credit.
func (s *morselSource) advance(m int) {
	s.mu.Lock()
	if m+1 > s.mergeBase {
		s.mergeBase = m + 1
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// progress returns the fraction of morsels the merge cursor has passed.
func (s *morselSource) progress() float64 {
	total := s.count()
	if total == 0 {
		return 1
	}
	s.mu.Lock()
	done := s.mergeBase
	s.mu.Unlock()
	return float64(done) / float64(total)
}

// stop wakes all blocked claimants and refuses further claims.
func (s *morselSource) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
