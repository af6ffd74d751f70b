package opt

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

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
	if !pinned && !slices.Equal(top.Schema().Names(), origNames) {
		top = restoreOrder(top, origNames)
		if err := top.ResolveNode(o.ctx.Cat); err != nil {
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
//
// A split is costed from its inputs' memo entries and the key domains
// precomputed per predicate. It becomes a plan node only if it wins its mask
// or both inputs match the recycler graph — only then can the join itself be
// seen, cached or in flight, which the coster must probe.
func (o *optimizer) dpJoin(inputs []*plan.Node, eqs []eqPred) *plan.Node {
	k := len(inputs)
	full := 1<<k - 1
	dp := make([]*plan.Node, 1<<k)
	ents := make([]*entry, 1<<k)
	for i, in := range inputs {
		dp[1<<i], ents[1<<i] = in, o.co.info(in)
	}

	// Map each predicate column to its owning input's bit.
	owner := make(map[string]int, 2*len(eqs))
	for i, in := range inputs {
		for _, nm := range in.Schema().Names() {
			owner[nm] = i
		}
	}
	// A key column's domain is its input's: joins pass it through unchanged.
	type mpred struct {
		a, b   string
		ma, mb int
		dom    int64
	}
	preds := make([]mpred, 0, len(eqs))
	for _, e := range eqs {
		ia, oka := owner[e.a]
		ib, okb := owner[e.b]
		if !oka || !okb || ia == ib {
			return nil
		}
		dom := min(o.co.colDomain(inputs[ia], e.a), o.co.colDomain(inputs[ib], e.b))
		preds = append(preds, mpred{e.a, e.b, 1 << ia, 1 << ib, dom})
	}
	// build makes the resolved join of dp[sub] and dp[other] and interns it.
	build := func(sub, other int, rows int64) (*plan.Node, *entry) {
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
		n := plan.NewJoin(plan.Inner, dp[sub], dp[other], lk, rk)
		if n.ResolveNode(o.ctx.Cat) != nil {
			return nil, nil
		}
		return n, o.co.node(n, []*entry{ents[sub], ents[other]}, rows)
	}

	for mask := 3; mask <= full; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		type split struct {
			sub   int
			n     *plan.Node
			e     *entry
			rows  int64
			cost  plan.Work
			keyed bool
		}
		var best split
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			c := split{sub: sub}
			other := mask ^ sub
			l, r := ents[sub], ents[other]
			var dom int64 = 1
			for _, p := range preds {
				if p.ma&sub != 0 && p.mb&other != 0 || p.mb&sub != 0 && p.ma&other != 0 {
					c.keyed, dom = true, max(dom, p.dom)
				}
			}
			if best.keyed && !c.keyed {
				continue
			}
			c.rows = innerRows(l.Rows, r.Rows, dom)
			c.cost = l.Cost + r.Cost + plan.JoinWork(l.Rows, r.Rows, c.rows)
			if l.match != nil && r.match != nil {
				if c.n, c.e = build(sub, other, c.rows); c.n == nil {
					return nil
				}
				c.cost = c.e.Cost
			}
			if best.sub == 0 || (c.keyed && !best.keyed) || c.cost < best.cost {
				best = c
			}
		}
		if best.sub == 0 {
			return nil
		}
		if best.n == nil {
			if best.n, best.e = build(best.sub, mask^best.sub, best.rows); best.n == nil {
				return nil
			}
		}
		dp[mask], ents[mask] = best.n, best.e
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
	pairs := make([][2]string, len(lk))
	for i := range lk {
		pairs[i] = [2]string{lk[i], rk[i]}
	}
	slices.SortFunc(pairs, func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
	pairs = slices.Compact(pairs)
	lk, rk = make([]string, len(pairs)), make([]string, len(pairs))
	for i, p := range pairs {
		lk[i], rk[i] = p[0], p[1]
	}
	return lk, rk
}

// restoreOrder wraps n in an identity projection emitting names in order.
func restoreOrder(n *plan.Node, names []string) *plan.Node {
	projs := make([]plan.NamedExpr, len(names))
	for i, nm := range names {
		projs[i] = plan.P(expr.C(nm), nm)
	}
	return plan.NewProject(n, projs...)
}
