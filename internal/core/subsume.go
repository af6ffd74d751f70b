package core

import (
	"sort"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Subsumption (§IV-A): node a subsumes node b if b's result can be derived
// from a's result. The recycler graph records subsumption as specialized
// OR-edges consulted only after exact matching fails. Supported relations:
//
//   - selection subsumption: same child, predicate of b implies predicate
//     of a (range/equality analysis over conjunctions);
//   - column subsumption on aggregates: same child and group-by, b's
//     aggregates a subset of a's (derive by projection);
//   - tuple subsumption on aggregates: same child, b's group-by a subset of
//     a's, b's aggregates decomposable and present in a (derive by
//     re-aggregation);
//   - top-N subsumption: same child and sort keys, b.N <= a.N (derive by
//     prefix).

// SubMeta is the structured operator information retained for subsumption
// tests (graph-namespace column names).
type SubMeta struct {
	Intervals map[string]Interval // Select: conjunctive range constraints
	GroupBy   []string            // Aggregate: sorted group-by columns
	AggSigs   []string            // Aggregate: canonical agg signatures
	Decompose bool                // Aggregate: all aggs sum/count/min/max
	SortKeys  string              // TopN: canonical keys
	N         int                 // TopN: the N
	ok        bool
}

// Interval is a one-column range constraint with optional open bounds.
type Interval struct {
	Lo, Hi         vector.Datum
	HasLo, HasHi   bool
	LoOpen, HiOpen bool
}

// meta is attached lazily at insert time.
func buildMeta(n *plan.Node, rename func(string) string) *SubMeta {
	switch n.Op {
	case plan.Select:
		iv, ok := AnalyzePred(n.Pred, rename)
		if !ok {
			return nil
		}
		return &SubMeta{Intervals: iv, ok: true}
	case plan.Aggregate:
		m := &SubMeta{ok: true, Decompose: true}
		for _, g := range n.GroupBy {
			m.GroupBy = append(m.GroupBy, rename(g))
		}
		sort.Strings(m.GroupBy)
		for _, a := range n.Aggs {
			m.AggSigs = append(m.AggSigs, string(a.AppendCanon(nil, rename)))
			if a.Func == plan.Avg {
				m.Decompose = false
			}
		}
		return m
	case plan.TopN:
		return &SubMeta{SortKeys: string(plan.AppendKeys(nil, n.Keys, rename)), N: n.N, ok: true}
	}
	return nil
}

// linkSubsumption inspects siblings (same-op parents of the same child) and
// records subsumption edges between gn and any related node. Called with the
// graph write lock held, right after insertion (§IV-A). The paper links each
// node only to its tightest subsumer; we keep a direct edge to every detected
// subsumer, in either direction between gn and a sibling, which preserves
// reachability (transitive edges are redundant but harmless).
func (g *Graph) linkSubsumption(gn *Node, n *plan.Node, rename func(string) string) {
	meta := buildMeta(n, rename)
	if meta == nil {
		return
	}
	gn.meta = meta
	if len(gn.Children) != 1 {
		return
	}
	child := gn.Children[0]
	// child.parents is in insertion order, so subsumption edges accumulate
	// in the same order on every run: rewrite walks subsumers in slice
	// order.
	for _, sib := range child.parents {
		if sib == gn || sib.Op != gn.Op || len(sib.Children) != 1 {
			continue
		}
		sm := sib.meta
		if subsumes(sm, meta, gn.Op) {
			gn.subsumers = append(gn.subsumers, sib)
		}
		if subsumes(meta, sm, gn.Op) {
			sib.subsumers = append(sib.subsumers, gn)
		}
	}
}

// Subsumers returns the nodes whose results subsume n's result, following
// subsumption edges transitively: n's direct subsumers first, oldest first,
// then theirs.
func (n *Node) Subsumers() []*Node {
	var out []*Node
	seen := map[*Node]struct{}{n: {}}
	frontier := n.subsumers
	for len(frontier) > 0 {
		var next []*Node
		for _, s := range frontier {
			if _, ok := seen[s]; ok {
				continue
			}
			seen[s] = struct{}{}
			out = append(out, s)
			next = append(next, s.subsumers...)
		}
		frontier = next
	}
	return out
}

// Meta returns the node's subsumption metadata, if any.
func (n *Node) Meta() *SubMeta { return n.meta }

// subsumes reports whether a's result subsumes b's (b derivable from a).
func subsumes(a, b *SubMeta, op plan.Op) bool {
	if a == nil || b == nil || !a.ok || !b.ok {
		return false
	}
	switch op {
	case plan.Select:
		return impliesAll(b.Intervals, a.Intervals)
	case plan.Aggregate:
		if equalStrings(a.GroupBy, b.GroupBy) {
			// Column subsumption: project b's aggregates out of a.
			return subset(b.AggSigs, a.AggSigs)
		}
		// Tuple subsumption: re-aggregate a at b's coarser grouping.
		return b.Decompose && subset(b.GroupBy, a.GroupBy) && subset(b.AggSigs, a.AggSigs)
	case plan.TopN:
		return a.SortKeys == b.SortKeys && b.N <= a.N
	}
	return false
}

func equalStrings(a, b []string) bool {
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

func subset(sub, super []string) bool {
	set := make(map[string]struct{}, len(super))
	for _, s := range super {
		set[s] = struct{}{}
	}
	for _, s := range sub {
		if _, ok := set[s]; !ok {
			return false
		}
	}
	return true
}

// AnalyzePred extracts per-column range constraints from a conjunction of
// simple comparisons (col <op> literal). ok=false if the predicate contains
// anything beyond that (OR, LIKE, arithmetic over columns, ...).
func AnalyzePred(e expr.Expr, rename func(string) string) (map[string]Interval, bool) {
	out := make(map[string]Interval)
	if !collectConstraints(e, rename, out) {
		return nil, false
	}
	return out, true
}

func collectConstraints(e expr.Expr, rename func(string) string, out map[string]Interval) bool {
	switch x := e.(type) {
	case *expr.And:
		for _, sub := range x.Es {
			if !collectConstraints(sub, rename, out) {
				return false
			}
		}
		return true
	case *expr.Cmp:
		col, lit, op, ok := normalizeCmp(x)
		if !ok {
			return false
		}
		name := rename(col.Name)
		iv := out[name]
		switch op {
		case expr.EQ:
			iv = intersect(iv, Interval{Lo: lit, Hi: lit, HasLo: true, HasHi: true})
		case expr.LT:
			iv = intersect(iv, Interval{Hi: lit, HasHi: true, HiOpen: true})
		case expr.LE:
			iv = intersect(iv, Interval{Hi: lit, HasHi: true})
		case expr.GT:
			iv = intersect(iv, Interval{Lo: lit, HasLo: true, LoOpen: true})
		case expr.GE:
			iv = intersect(iv, Interval{Lo: lit, HasLo: true})
		default: // NE is not an interval
			return false
		}
		out[name] = iv
		return true
	}
	return false
}

// normalizeCmp extracts (column, literal, op) with the column on the left.
func normalizeCmp(c *expr.Cmp) (*expr.Col, vector.Datum, expr.CmpOp, bool) {
	if col, ok := c.L.(*expr.Col); ok {
		if lit, ok := c.R.(*expr.Lit); ok {
			return col, lit.D, c.Op, true
		}
	}
	if col, ok := c.R.(*expr.Col); ok {
		if lit, ok := c.L.(*expr.Lit); ok {
			return col, lit.D, flipCmp(c.Op), true
		}
	}
	return nil, vector.Datum{}, 0, false
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	}
	return op // EQ, NE symmetric
}

// intersect tightens a with b.
func intersect(a, b Interval) Interval {
	if b.HasLo {
		if !a.HasLo || cmpDatum(b.Lo, a.Lo) > 0 || (cmpDatum(b.Lo, a.Lo) == 0 && b.LoOpen) {
			a.Lo, a.HasLo, a.LoOpen = b.Lo, true, b.LoOpen
		}
	}
	if b.HasHi {
		if !a.HasHi || cmpDatum(b.Hi, a.Hi) < 0 || (cmpDatum(b.Hi, a.Hi) == 0 && b.HiOpen) {
			a.Hi, a.HasHi, a.HiOpen = b.Hi, true, b.HiOpen
		}
	}
	return a
}

// cmpDatum compares numerics across int/float/date; falls back to Datum.Compare.
func cmpDatum(a, b vector.Datum) int {
	num := func(t vector.Type) bool {
		return t == vector.Int64 || t == vector.Float64 || t == vector.Date
	}
	if a.Typ != b.Typ && num(a.Typ) && num(b.Typ) {
		af, bf := asF64(a), asF64(b)
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	return a.Compare(b)
}

func asF64(d vector.Datum) float64 {
	if d.Typ == vector.Float64 {
		return d.F64
	}
	return float64(d.I64)
}

// impliesAll reports whether the strict constraint set implies the loose
// one: every column the loose set constrains must be constrained at least as
// tightly by the strict set.
func impliesAll(strict, loose map[string]Interval) bool {
	//recycledb:nondet-ok — pure ∀-reduction; order cannot affect the result
	for col, lv := range loose {
		sv, ok := strict[col]
		if !ok {
			return false
		}
		if !within(sv, lv) {
			return false
		}
	}
	return true
}

// within reports whether inner ⊆ outer.
func within(inner, outer Interval) bool {
	if outer.HasLo {
		if !inner.HasLo {
			return false
		}
		c := cmpDatum(inner.Lo, outer.Lo)
		if c < 0 || (c == 0 && outer.LoOpen && !inner.LoOpen) {
			return false
		}
	}
	if outer.HasHi {
		if !inner.HasHi {
			return false
		}
		c := cmpDatum(inner.Hi, outer.Hi)
		if c > 0 || (c == 0 && outer.HiOpen && !inner.HiOpen) {
			return false
		}
	}
	return true
}
