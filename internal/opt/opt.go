// Package opt is a transformation-based plan optimizer that runs between
// sql.CompileStatement/Resolve and execution. It applies three classical rules —
// predicate pushdown (splitting conjunctions via expr.Conjuncts), join
// reordering over inner-equijoin groups, and projection pruning — with a
// twist the recycler makes possible: a subtree the recycler graph holds a
// cached or in-flight result for, under the statement's snapshot tags, is
// costed as a *cached access path* (near-zero replay cost). The optimizer
// therefore deliberately picks the join order, conjunct order, and pushdown
// placement that reuses a warm subtree even when that shape is not the
// cold-cost winner.
//
// The optimizer has two phases:
//
//   - Normalize is static and cache-independent: pushdown, canonical
//     conjunct chain-splitting (each conjunct becomes its own Select so
//     chain prefixes are independently matchable/cacheable), and projection
//     pruning. It is idempotent and runs once per compiled template.
//   - Optimize adds the dynamic, recycler-aware phase on a bound plan:
//     probe-greedy conjunct-chain ordering (extend the chain with whichever
//     conjunct reproduces a subtree the graph already holds) and a
//     deterministic dynamic-programming join reorder over subsets of the
//     equijoin group's inputs.
//
// Both plan one node at a time: the coster is a hash-consed memo that costs,
// matches (core.Graph.Match) and probes (core.Recycler.Probe) a shape from
// its children's entries, candidates resolve over resolved inputs
// (plan.Node.ResolveNode), and a losing join split is never built at all —
// each candidate costs O(one node), not O(subtree).
//
// Everything is deterministic for a fixed recycler state: group enumeration
// is by sorted bitmask order, conjunct canonical order is a sort on literal
// presence then canonical string, and ties keep the first-enumerated
// candidate. Cold costs come from a pure per-node model seeded with the
// statement's snapshot row counts — measured execution statistics
// deliberately do not steer shape choice (they would make plan shapes flap
// between runs and defeat HIST-mode's seen-before matching); they surface
// only in EXPLAIN annotations.
package opt

import (
	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// maxJoinGroup caps the size of a join group the dynamic-programming
// reorder enumerates (3^k candidate splits); larger groups keep their
// written order.
const maxJoinGroup = 7

// Context carries the per-statement environment the dynamic phase needs.
type Context struct {
	// Cat resolves plans and provides fallback table cardinalities.
	Cat *catalog.Catalog
	// Rec is probed for warm subtrees; nil disables the dynamic phase's
	// recycler steering (costing is then purely cold).
	Rec *core.Recycler
	// Validate vets a candidate cached entry against the statement's
	// snapshot tags (core.EntrySnapValid); nil accepts any entry.
	Validate func(*core.Entry) bool
	// TableRows overrides per-table cardinalities with the statement's
	// snapshot row counts, keeping cost estimates consistent with the data
	// the statement will actually read.
	TableRows map[string]int64
}

// Normalize applies the static, cache-independent rules — predicate
// pushdown, canonical conjunct chain-splitting, and projection pruning — and
// re-resolves the tree. It is idempotent, mutates p in place (callers pass a
// plan they own), and returns the possibly-new root.
func Normalize(p *plan.Node, cat *catalog.Catalog) (*plan.Node, error) {
	if err := p.Resolve(cat); err != nil {
		return nil, err
	}
	p = pushPreds(p, nil)
	if err := p.Resolve(cat); err != nil {
		return nil, err
	}
	pruneTree(p, nil)
	if err := p.Resolve(cat); err != nil {
		return nil, err
	}
	return p, nil
}

// Optimize runs the full optimizer: Normalize, then the dynamic
// recycler-aware phase (probe-greedy chain ordering and join reordering).
// p is mutated in place; the returned root is resolved.
func Optimize(p *plan.Node, ctx *Context) (*plan.Node, error) {
	p, err := Normalize(p, ctx.Cat)
	if err != nil {
		return nil, err
	}
	o := &optimizer{ctx: ctx, co: newCoster(ctx)}
	p, err = o.walk(p, false, false)
	if err != nil {
		return nil, err
	}
	if err := p.Resolve(ctx.Cat); err != nil {
		return nil, err
	}
	return p, nil
}

// optimizer is the dynamic phase's per-statement state.
type optimizer struct {
	ctx *Context
	co  *coster
}

// walk applies the dynamic rules top-down. pinned reports that some
// ancestor (Project, Aggregate) rebinds columns by name, so column-order
// changes below it are invisible; when false, a reordered join group must
// restore its original column order with an identity projection. noReorder
// poisons a subtree under Limit: reordering there could change which N rows
// pass (conjunct-order steering stays legal — filters never change the
// surviving row set or order).
func (o *optimizer) walk(n *plan.Node, pinned, noReorder bool) (*plan.Node, error) {
	switch n.Op {
	case plan.Scan, plan.TableFn, plan.Cached:
		return n, nil
	case plan.Select:
		return o.steerChain(n, pinned, noReorder)
	case plan.Join:
		if n.JT == plan.Inner && !noReorder {
			return o.reorderJoin(n, pinned, noReorder)
		}
		rp := pinned
		if n.JT == plan.LeftSemi || n.JT == plan.LeftAnti {
			// The right side contributes no output columns, only key
			// matches; its column order is free.
			rp = true
		}
		l, err := o.walk(n.Children[0], pinned, noReorder)
		if err != nil {
			return nil, err
		}
		r, err := o.walk(n.Children[1], rp, noReorder)
		if err != nil {
			return nil, err
		}
		n.Children[0], n.Children[1] = l, r
		return n, nil
	case plan.Project, plan.Aggregate:
		c, err := o.walk(n.Children[0], true, noReorder)
		if err != nil {
			return nil, err
		}
		n.Children[0] = c
		return n, nil
	case plan.Limit:
		c, err := o.walk(n.Children[0], pinned, true)
		if err != nil {
			return nil, err
		}
		n.Children[0] = c
		return n, nil
	case plan.Union:
		// Union matches children positionally: both sides must keep their
		// column order.
		for i, c := range n.Children {
			w, err := o.walk(c, false, noReorder)
			if err != nil {
				return nil, err
			}
			n.Children[i] = w
		}
		return n, nil
	default: // TopN, Sort
		c, err := o.walk(n.Children[0], pinned, noReorder)
		if err != nil {
			return nil, err
		}
		n.Children[0] = c
		return n, nil
	}
}

// steerChain rebuilds a maximal Select chain: the base below it is walked
// first (it may be a join group that reorders), then the chain's conjuncts
// are re-ordered probe-greedily so that prefixes reproduce subtrees the
// recycler already holds. Conjunct order never changes the surviving rows
// or their order, so this is legal everywhere — including under Limit.
func (o *optimizer) steerChain(n *plan.Node, pinned, noReorder bool) (*plan.Node, error) {
	var preds []expr.Expr
	cur := n
	for cur.Op == plan.Select {
		preds = append(preds, expr.Conjuncts(cur.Pred)...)
		cur = cur.Children[0]
	}
	base, err := o.walk(cur, pinned, noReorder)
	if err != nil {
		return nil, err
	}
	if err := base.Resolve(o.ctx.Cat); err != nil {
		return nil, err
	}
	out := base
	for _, p := range o.orderChain(base, canonPreds(preds)) {
		out = plan.NewSelect(out, p.e)
	}
	return out, nil
}

// orderChain orders a chain's conjuncts. Without a recycler the canonical
// order stands: literal-free conjuncts innermost — those prefixes are shared
// across every binding of a template — then canonical-string order. With a
// recycler, the chain is grown greedily: at each step the conjunct whose
// extension matches the warmest graph node wins (cached > in-flight > merely
// seen), ties resolved by canonical order. Because "seen" extensions beat
// unseen ones, repeated executions converge on the first-seen order instead
// of fragmenting the graph into permutations.
func (o *optimizer) orderChain(base *plan.Node, preds []cpred) []cpred {
	if o.ctx.Rec == nil || len(preds) < 2 {
		return preds
	}
	// extend puts conjunct p on cur, resolved and interned one level above
	// cur's entry ce; nil when p does not bind.
	extend := func(cur *plan.Node, ce *entry, p cpred) (*plan.Node, *entry) {
		n := plan.NewSelect(cur, p.e)
		if n.ResolveNode(o.ctx.Cat) != nil {
			return nil, nil
		}
		return n, o.co.node(n, []*entry{ce}, -1)
	}
	baseEnt := o.co.info(base)
	// Steady-state fast path: if the graph already holds the full canonical
	// chain, every prefix is already converged — one match per conjunct
	// instead of the O(k²) greedy search below. The greedy search only pays
	// off when some *other* permutation is warm while the canonical one has
	// never run.
	cur, ce := base, baseEnt
	for i := 0; i < len(preds) && cur != nil && ce.match != nil; i++ {
		cur, ce = extend(cur, ce, preds[i])
	}
	if cur != nil && ce.match != nil {
		return preds
	}
	out := make([]cpred, 0, len(preds))
	rem := append([]cpred(nil), preds...)
	cur, ce = base, baseEnt
	// An unmatched chain has no matched extension: canonical order for the
	// rest.
	for len(rem) > 0 && ce.match != nil {
		best, bestScore := -1, 0
		var bestNode *plan.Node
		var bestEnt *entry
		for i, p := range rem {
			n, e := extend(cur, ce, p)
			if n != nil && e.score() > bestScore {
				best, bestScore, bestNode, bestEnt = i, e.score(), n, e
			}
		}
		if best < 0 {
			break
		}
		out = append(out, rem[best])
		rem = append(rem[:best], rem[best+1:]...)
		cur, ce = bestNode, bestEnt
	}
	return append(out, rem...)
}
