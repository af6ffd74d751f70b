package opt

import (
	"math/bits"
	"sort"
	"time"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// Join reordering. A *group* is a maximal tree of inner equijoins (any
// other operator — a Select chain, a non-inner join, an aggregate — bounds
// it and becomes an input). The group's equality predicates are collected
// as column pairs, each input's columns are unique across the group (the
// original plan resolved), and a bitmask dynamic program enumerates every
// binary bushy tree over the inputs: dp[mask] is the cheapest plan joining
// exactly the inputs in mask, built by splitting mask into every
// (submask, complement) pair. Masks ascend and submasks follow Go's
// standard decreasing (sub-1)&mask walk, so enumeration order — and with
// strict-less cost comparison, tie-breaks — is deterministic. Keyed splits
// always beat keyless (cross) splits regardless of modeled cost; keyless
// splits exist only so disconnected groups (cross joins in the source
// query) still plan. Candidate costs flow through the coster, so a split
// that reproduces a warm subtree is costed as a cached access path and the
// DP steers the join order toward reuse.

// eqPred is one equality predicate of a group, as a column-name pair.
type eqPred struct {
	a, b string
}

// reorderJoin optimizes the inner-equijoin group rooted at n. Inputs are
// walked (pinned: the group output is re-projected if order matters) before
// the DP runs; if the DP cannot improve or cannot plan the group, the
// written shape stands.
func (o *optimizer) reorderJoin(n *plan.Node, pinned, noReorder bool) (*plan.Node, error) {
	origNames := append([]string(nil), n.Schema().Names()...)
	if err := o.walkGroupChildren(n, noReorder); err != nil {
		return nil, err
	}
	if err := n.Resolve(o.ctx.Cat); err != nil {
		return nil, err
	}

	var inputs []*plan.Node
	var eqs []eqPred
	collectGroup(n, &inputs, &eqs)

	top := n
	if len(inputs) >= 2 && len(inputs) <= maxJoinGroup {
		if best := o.dpJoin(inputs, eqs); best != nil {
			top = best
		}
	}
	if err := top.Resolve(o.ctx.Cat); err != nil {
		return nil, err
	}
	if !pinned && !sameOrder(top.Schema().Names(), origNames) {
		top = restoreOrder(top, origNames)
		if err := top.Resolve(o.ctx.Cat); err != nil {
			return nil, err
		}
	}
	return top, nil
}

// walkGroupChildren recursively walks the group's non-join inputs in place,
// without disturbing the group's own join structure. Inputs are walked
// pinned: whatever happens to their column order, the group top restores
// the output order when it matters.
func (o *optimizer) walkGroupChildren(n *plan.Node, noReorder bool) error {
	for i, c := range n.Children {
		if c.Op == plan.Join && c.JT == plan.Inner {
			if err := o.walkGroupChildren(c, noReorder); err != nil {
				return err
			}
			continue
		}
		w, err := o.walk(c, true, noReorder)
		if err != nil {
			return err
		}
		n.Children[i] = w
	}
	return nil
}

// collectGroup gathers the group's inputs (left-to-right source order) and
// equality predicates.
func collectGroup(n *plan.Node, inputs *[]*plan.Node, eqs *[]eqPred) {
	if n.Op == plan.Join && n.JT == plan.Inner {
		collectGroup(n.Children[0], inputs, eqs)
		collectGroup(n.Children[1], inputs, eqs)
		for i := range n.LeftKeys {
			*eqs = append(*eqs, eqPred{n.LeftKeys[i], n.RightKeys[i]})
		}
		return
	}
	*inputs = append(*inputs, n)
}

// dpJoin runs the bitmask DP and returns the cheapest resolved join tree
// over inputs, or nil when the group cannot be (re)planned.
func (o *optimizer) dpJoin(inputs []*plan.Node, eqs []eqPred) *plan.Node {
	k := len(inputs)
	full := 1<<k - 1
	dp := make([]*plan.Node, 1<<k)
	for i, in := range inputs {
		dp[1<<i] = in
	}

	// Map each predicate column to its owning input's bit.
	owner := make(map[string]int, 2*len(eqs))
	for i, in := range inputs {
		for _, nm := range in.Schema().Names() {
			owner[nm] = i
		}
	}
	type mpred struct {
		a, b   string
		ma, mb int
	}
	preds := make([]mpred, 0, len(eqs))
	for _, e := range eqs {
		ia, oka := owner[e.a]
		ib, okb := owner[e.b]
		if !oka || !okb || ia == ib {
			return nil
		}
		preds = append(preds, mpred{e.a, e.b, 1 << ia, 1 << ib})
	}

	for mask := 3; mask <= full; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		var best *plan.Node
		var bestCost time.Duration
		bestKeyed := false
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if dp[sub] == nil || dp[other] == nil {
				continue
			}
			var lk, rk []string
			for _, p := range preds {
				switch {
				case p.ma&sub != 0 && p.mb&other != 0:
					lk = append(lk, p.a)
					rk = append(rk, p.b)
				case p.mb&sub != 0 && p.ma&other != 0:
					lk = append(lk, p.b)
					rk = append(rk, p.a)
				}
			}
			lk, rk = canonKeys(lk, rk)
			keyed := len(lk) > 0
			if bestKeyed && !keyed {
				continue
			}
			cand := plan.NewJoin(plan.Inner, dp[sub], dp[other], lk, rk)
			if cand.Resolve(o.ctx.Cat) != nil {
				return nil
			}
			cost := o.co.info(cand).Cost
			if best == nil || (keyed && !bestKeyed) || cost < bestCost {
				best, bestCost, bestKeyed = cand, cost, keyed
			}
		}
		if best == nil {
			return nil
		}
		dp[mask] = best
	}
	return dp[full]
}

// canonKeys sorts key pairs lexicographically and drops duplicates, so
// logically identical joins render identical canonical signatures no matter
// the order predicates were discovered in.
func canonKeys(lk, rk []string) ([]string, []string) {
	if len(lk) < 2 {
		return lk, rk
	}
	idx := make([]int, len(lk))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if lk[i] != lk[j] {
			return lk[i] < lk[j]
		}
		return rk[i] < rk[j]
	})
	outL := make([]string, 0, len(lk))
	outR := make([]string, 0, len(rk))
	for _, i := range idx {
		if len(outL) > 0 && outL[len(outL)-1] == lk[i] && outR[len(outR)-1] == rk[i] {
			continue
		}
		outL = append(outL, lk[i])
		outR = append(outR, rk[i])
	}
	return outL, outR
}

func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// restoreOrder wraps n in an identity projection emitting names in order.
func restoreOrder(n *plan.Node, names []string) *plan.Node {
	projs := make([]plan.NamedExpr, len(names))
	for i, nm := range names {
		projs[i] = plan.P(expr.C(nm), nm)
	}
	return plan.NewProject(n, projs...)
}
