package core

import (
	"math"

	"recycledb/internal/plan"
)

// This file implements §III-C: the benefit metric
//
//	B(R) = cost(R) * hR / size(R)                     (Eq. 1)
//	cost(R) = bcost(R) - Σ_{j in DMDs(R)} bcost(Rj)   (Eq. 2)
//
// importance-factor maintenance on materialization/eviction (Eq. 3-4,
// Algorithm 2) and lazy exponential aging (Eq. 5).
//
// Costs are plan.Work: bcost(R) is the cost model's weight table applied to
// the rows execution counted in and out of each node of R's subtree, the
// same table the optimizer applies to estimated rows. The paper measures
// bcost with a clock; a model is used here instead because a clock makes
// every admission depend on the machine, its load and the worker count — the
// same plan over the same data would be stored by one run and refused by
// the next — while the model makes each recycler decision a pure function of
// plan, data and statement sequence. "Revisiting Reuse in Main Memory
// Database Systems" (PAPERS.md) decides reuse from a cost model for the
// same reason. The benefit unit is therefore work per byte.

// NanosPerWork converts work to wall time, for the one bound that must be a
// duration: StallTimeoutFor's. Calibrated once on the benchmark's
// streams_off workload (TPC-H qgen streams at scale factor 0.05, recycling
// off, 2-CPU x86-64): its 108 traced ops at seed 1 took 19,993 µs of
// execution (exec.run_us) and count 4,108,089 work units each, 4.87 ns per
// unit. Serial in-process runs of the 352 ops of streams 0–15 give 4.81–4.87.
const NanosPerWork = 4.87

// CopyWorkPerByte prices the deep copy a store operator performs, per byte
// materialized. It keeps the threshold the recycler used when copies were
// priced at 256 MiB/s, 3.73 ns per byte, for the results whose size makes
// the threshold bind: selections and joins (aggregates and top-Ns are a few
// KiB). The clock the recycler used to read measured those at 2.6 and 3.2
// ns per unit (inclusive, one worker, the 352 ops of TPC-H streams 0–15 at
// scale factor 0.05; whole plans 4.87), so a byte costs 3.73 / 2.6 ≈ 1.43
// units. Converting at the whole-plan rate instead stores wide selections
// the clock never stored, and doubles wire_churn's heap.
const CopyWorkPerByte = 3.73 / 2.6

// CopyCost is the one-time work of materializing a result of size bytes. A
// result only qualifies for materialization if its expected recompute
// savings exceed it — the quantified form of the paper's "computationally
// expensive and likely to have a small result size" criterion (§III-D),
// which matters at in-memory scales where copying can be as expensive as
// computing.
func CopyCost(size int64) plan.Work {
	return plan.Work(float64(size) * CopyWorkPerByte)
}

//
// Locking: the *Locked suffix means the caller holds the node's mutex; all
// other functions lock the node mutexes they touch, one node at a time
// (node mutexes are leaf locks, so the DAG walks here cannot deadlock, at
// the price of slight interleaving drift between concurrent walks — hR is
// a heuristic, not an invariant).

// foldAgeLocked lazily applies aging to n up to the global sequence seq:
// h_t = h_{t-1} * alpha per query (Eq. 5), folded in one step. n.mu held.
func foldAgeLocked(n *Node, seq uint64, alpha float64) {
	if n.ageSeq >= seq || alpha >= 1 {
		n.ageSeq = seq
		return
	}
	n.hr *= math.Pow(alpha, float64(seq-n.ageSeq))
	n.ageSeq = seq
}

// addRef increments the node's importance factor by one reference.
func addRef(n *Node, seq uint64, alpha float64) {
	n.mu.Lock()
	foldAgeLocked(n, seq, alpha)
	n.hr++
	n.mu.Unlock()
}

// hrAtLocked returns the node's current (aged) importance factor. n.mu held.
func (n *Node) hrAtLocked(seq uint64, alpha float64) float64 {
	foldAgeLocked(n, seq, alpha)
	if n.hr < 0 {
		return 0
	}
	return n.hr
}

// hrAt is hrAtLocked with internal locking.
func (n *Node) hrAt(seq uint64, alpha float64) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hrAtLocked(seq, alpha)
}

// dmdBaseCost sums the base costs of the direct materialized descendants of
// n: materialized descendants with no materialized node in between (§III-C).
// The DAG may share subtrees; each DMD counts once.
func dmdBaseCost(n *Node) plan.Work {
	seen := make(map[*Node]struct{})
	var total plan.Work
	var walk func(m *Node)
	walk = func(m *Node) {
		if _, ok := seen[m]; ok {
			return
		}
		seen[m] = struct{}{}
		if m.cached.Load() != nil {
			m.mu.Lock()
			total += m.baseCost
			m.mu.Unlock()
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	for _, c := range n.Children {
		walk(c)
	}
	return total
}

// trueCost computes Eq. 2. The true cost is recomputed on demand from the
// stored base costs rather than stored, as the paper prescribes (cheap, and
// avoids graph-wide updates when cache contents change).
func trueCost(n *Node) plan.Work {
	n.mu.Lock()
	bc := n.baseCost
	n.mu.Unlock()
	c := bc - dmdBaseCost(n)
	if c < 0 {
		c = 0
	}
	return c
}

// benefit computes Eq. 1 with an explicit hr (callers pass either the aged
// importance factor or the speculation constant) and size in bytes.
func benefitOf(cost plan.Work, hr float64, size int64) float64 {
	if size <= 0 {
		size = 1
	}
	return float64(cost) * hr / float64(size)
}

// BenefitValue exposes Eq. 1 for callers that estimate cost and size at
// run time (speculation, §III-D).
func BenefitValue(cost plan.Work, hr float64, size int64) float64 {
	return benefitOf(cost, hr, size)
}

// updateHROnAdd implements Algorithm 2 / Eq. 3: when node n's result is
// added to the cache, every DMD and potential DMD below it loses the
// references that will now be served by n.
func updateHROnAdd(n *Node, seq uint64, alpha float64) {
	n.mu.Lock()
	foldAgeLocked(n, seq, alpha)
	delta := n.hr
	n.mu.Unlock()
	for _, c := range n.Children {
		updateHR(c, -delta, seq, alpha, make(map[*Node]struct{}))
	}
}

// updateHROnEvict implements Eq. 4: when node n's result is evicted, its
// DMDs and potential DMDs regain those references.
func updateHROnEvict(n *Node, seq uint64, alpha float64) {
	n.mu.Lock()
	foldAgeLocked(n, seq, alpha)
	delta := n.hr
	n.mu.Unlock()
	for _, c := range n.Children {
		updateHR(c, delta, seq, alpha, make(map[*Node]struct{}))
	}
}

// updateHR adjusts hR by delta, stopping below materialized results
// (Algorithm 2, generalized to the shared DAG with a visited set).
func updateHR(m *Node, delta float64, seq uint64, alpha float64, seen map[*Node]struct{}) {
	if _, ok := seen[m]; ok {
		return
	}
	seen[m] = struct{}{}
	m.mu.Lock()
	foldAgeLocked(m, seq, alpha)
	m.hr += delta
	if m.hr < 0 {
		m.hr = 0
	}
	m.mu.Unlock()
	if m.cached.Load() != nil {
		return
	}
	for _, c := range m.Children {
		updateHR(c, delta, seq, alpha, seen)
	}
}
