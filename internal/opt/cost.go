package opt

import (
	"math"

	"recycledb/internal/core"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// Costing. A plan's cost is the weight table (plan.OpWork) applied to each
// node over estimated rows — a pure function of the plan shape and the
// statement's snapshot row counts, in the same plan.Work units the executor
// prices a finished run in, so EXPLAIN's estimate and measurement compare
// directly. The model is intentionally *not* fed the recycler's measured
// NodeStats: measured costs appear only after a shape first executes, so
// steering on them would make rival comparisons flip with execution history
// and fragment the graph across shapes — exactly what HIST-mode's
// seen-before matching cannot afford. The recycler influences costs through
// one channel only: a subtree with a valid cached entry (or an in-flight
// producer) is re-costed as a cached access path: its replay work.
//
// Join cardinality uses key domains: an inner equijoin yields
// |L|·|R| / dom, where a key pair's domain is the smaller of its two
// columns' origin cardinalities (colDomain: the unfiltered table's row
// count for a scanned column, the group estimate for a group-by column) and
// a composite key takes its largest pair domain. A foreign key joined to a
// filtered primary key therefore keeps the foreign side's size scaled by
// the filter — lineitem ⋈ σ(part) is a fraction of lineitem, not of part —
// so the DP no longer mistakes lineitem for the small side and builds its
// hash table on it.

// NodeInfo is the memoized verdict for one canonical plan shape; EXPLAIN
// prints it per node.
type NodeInfo struct {
	// Rows and Cost are the optimizer's estimates (Cost inclusive of
	// children, after any cached-access-path adjustment).
	Rows int64
	Cost plan.Work
	// Existed / Cached / Inflight report the recycler's view of the
	// subtree under the statement's snapshot; Measured is its measured
	// base cost, when Known.
	Existed, Cached, Inflight bool
	Measured                  plan.Work
	Known                     bool
}

// entry is one memo group: a shape's verdict, its memo id, and the recycler
// graph node it matches (nil without a recycler or for a shape the graph
// has never seen).
type entry struct {
	NodeInfo
	id    int
	match *core.NodeMatch
}

// coster is the optimizer's hash-consed memo. Shapes are interned bottom-up,
// each keyed (plan.Key) on its identity text with the output names it
// assigns — its match maps them to graph columns for its parent — over its
// children's memo ids, so logically identical subtrees, however they were
// assembled, share one entry. An entry is costed from its children's entries
// and matched against the recycler graph from their matches, so interning,
// costing and probing a node is one level of work whatever the size of the
// plan below it.
type coster struct {
	ctx  *Context
	memo map[plan.Key]*entry
}

func newCoster(ctx *Context) *coster {
	return &coster{ctx: ctx, memo: make(map[plan.Key]*entry)}
}

// info returns the memo entry of a resolved subtree, interning it bottom-up.
func (c *coster) info(n *plan.Node) *entry {
	var kids [2]*entry
	for i, ch := range n.Children {
		kids[i] = c.info(ch)
	}
	return c.node(n, kids[:len(n.Children)], -1)
}

// node returns the memo entry of a resolved node over its children's
// entries. rows, when not negative, is n's cardinality as the caller
// already estimated it.
func (c *coster) node(n *plan.Node, kids []*entry, rows int64) *entry {
	var ids [2]uint64
	var childRows [2]int64
	var ms [2]*core.NodeMatch
	matched := c.ctx.Rec != nil
	for i, kd := range kids {
		ids[i], childRows[i], ms[i] = uint64(kd.id), kd.Rows, kd.match
		matched = matched && kd.match != nil
	}
	k := n.Key(expr.Ident, true, ids)
	if e, ok := c.memo[k]; ok {
		return e
	}
	if rows < 0 {
		rows = c.estRows(n, childRows[:len(kids)])
	}
	e := &entry{id: len(c.memo) + 1}
	e.Rows = rows
	for _, kd := range kids {
		e.Cost += kd.Cost
	}
	e.Cost += n.SelfWork(rows, childRows[:len(kids)]...)
	// A child the graph has never seen means n cannot be in it either.
	if matched {
		e.match = c.ctx.Rec.Graph().Match(n, ms[:len(kids)])
		if e.match != nil && probeable(n.Op) {
			pi := c.ctx.Rec.Probe(e.match.G, c.ctx.Validate)
			e.Existed = true
			e.Known, e.Measured = pi.CostKnown, pi.BaseCost
			switch {
			case pi.Cached:
				e.Cached = true
				e.Cost = min(e.Cost, plan.ReplayWork(pi.CachedRows, pi.CachedBytes))
			case pi.Inflight:
				// A concurrent producer is materializing this result: the
				// executor will share or wait rather than recompute.
				e.Inflight = true
				e.Cost /= 4
			}
		}
	}
	c.memo[k] = e
	return e
}

// score ranks a chain extension by how warm its shape is: cached over
// in-flight over merely seen; 0 when the graph has never seen it.
func (ci *NodeInfo) score() int {
	switch {
	case ci.Cached:
		return 3
	case ci.Inflight:
		return 2
	case ci.Existed:
		return 1
	}
	return 0
}

// probeable reports ops the recycler could hold a result for; bare leaves
// are never cached (scans are the recomputation baseline, not entries).
func probeable(op plan.Op) bool {
	switch op {
	case plan.Scan, plan.TableFn, plan.Cached:
		return false
	}
	return true
}

// estRows estimates a node's output cardinality from its children's.
func (c *coster) estRows(n *plan.Node, childRows []int64) int64 {
	switch n.Op {
	case plan.Scan:
		return c.tableRows(n.Table)
	case plan.TableFn:
		return 1000
	case plan.Cached:
		return 100
	case plan.Select:
		r := float64(childRows[0]) * selectivity(n.Pred)
		return floor1(int64(r))
	case plan.Project:
		return childRows[0]
	case plan.Aggregate:
		if len(n.GroupBy) == 0 {
			return 1
		}
		return floor1(childRows[0] / 4)
	case plan.Join:
		l, r := childRows[0], childRows[1]
		switch n.JT {
		case plan.LeftSemi, plan.LeftAnti:
			return floor1(l / 2)
		case plan.LeftOuter:
			return l
		}
		// Key-domain estimate: each key pair matches over the smaller of
		// its two columns' domains, and a composite key is as selective
		// as its most selective pair. A cross join has domain 1.
		var dom int64 = 1
		for i := range n.LeftKeys {
			dom = max(dom, min(c.colDomain(n.Children[0], n.LeftKeys[i]),
				c.colDomain(n.Children[1], n.RightKeys[i])))
		}
		return innerRows(l, r, dom)
	case plan.TopN, plan.Limit:
		if int64(n.N) < childRows[0] {
			return int64(n.N)
		}
		return childRows[0]
	case plan.Union:
		return childRows[0] + childRows[1]
	default: // Sort
		return childRows[0]
	}
}

// innerRows estimates an inner join of l and r rows over a key domain dom:
// |L|·|R| / dom, the full product for a cross join's dom = 1.
func innerRows(l, r, dom int64) int64 {
	return floor1(int64(math.Min(float64(l)*float64(r)/float64(dom), 1e18)))
}

// colDomain estimates how many distinct values column name of n's output
// can take: the cardinality of the node the column originates at. The walk
// follows the column down through the operators that pass it on unchanged —
// Selects, renaming Projects, the owning side of a Join, Sort/TopN/Limit —
// to a Scan, which yields the unfiltered table's row count (a filter drops
// rows, not the key domain they came from), or to the node that computes
// it: an Aggregate (its group estimate, for a group-by column), a computing
// Project, a table function. All of these are estimates already memoized
// for n's subtree, so the domain is as deterministic as the row counts.
func (c *coster) colDomain(n *plan.Node, name string) int64 {
	for {
		switch n.Op {
		case plan.Scan:
			return c.tableRows(n.Table)
		case plan.Select, plan.Sort, plan.TopN, plan.Limit:
			n = n.Children[0]
			continue
		case plan.Project:
			if src := renamedFrom(n, name); src != "" {
				n, name = n.Children[0], src
				continue
			}
		case plan.Join:
			if l := n.Children[0]; l.Schema().ColIndex(name) >= 0 {
				n = l
				continue
			}
			if r := n.Children[1]; r.Schema().ColIndex(name) >= 0 {
				n = r
				continue
			}
		}
		return c.info(n).Rows
	}
}

// renamedFrom returns the input column a Project passes through to output
// name unchanged (possibly renamed), or "" when the item computes it.
func renamedFrom(n *plan.Node, name string) string {
	for _, p := range n.Projs {
		if p.As == name {
			if col, ok := p.E.(*expr.Col); ok {
				return col.Name
			}
			return ""
		}
	}
	return ""
}

func (c *coster) tableRows(table string) int64 {
	if c.ctx.TableRows != nil {
		if r, ok := c.ctx.TableRows[table]; ok {
			return floor1(r)
		}
	}
	if c.ctx.Cat != nil {
		if t, err := c.ctx.Cat.Table(table); err == nil {
			return floor1(int64(t.Rows()))
		}
	}
	return 1000
}

// selectivity is a textbook heuristic per predicate form.
func selectivity(e expr.Expr) float64 {
	switch x := e.(type) {
	case *expr.And:
		p := 1.0
		for _, c := range x.Es {
			p *= selectivity(c)
		}
		return p
	case *expr.Or:
		s := 0.0
		for _, c := range x.Es {
			s += selectivity(c)
		}
		return math.Min(s, 1)
	case *expr.Not:
		return 1 - selectivity(x.E)
	case *expr.Cmp:
		switch x.Op {
		case expr.EQ:
			return 0.1
		case expr.NE:
			return 0.9
		default:
			return 0.3
		}
	case *expr.Like:
		if x.Negate {
			return 0.75
		}
		return 0.25
	case *expr.InList:
		s := math.Min(0.05*float64(len(x.Vals)), 0.5)
		if x.Negate {
			return 1 - s
		}
		return s
	}
	return 0.33
}

func floor1(v int64) int64 {
	if v < 1 {
		return 1
	}
	return v
}

// ShapeKey renders a plan's identity whole: each node's identity text with
// the output names it assigns (plan.Node.AppendCanon), its children's in
// parentheses after it. Two bound plans with equal keys return the same rows
// under the same column names and types. The engine keys its
// optimized-shape cache on it.
func ShapeKey(p *plan.Node) string { return string(appendShape(make([]byte, 0, 256), p)) }

func appendShape(b []byte, n *plan.Node) []byte {
	b = n.AppendCanon(b, expr.Ident, true)
	if len(n.Children) == 0 {
		return b
	}
	b = append(b, '(')
	for i, c := range n.Children {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendShape(b, c)
	}
	return append(b, ')')
}
