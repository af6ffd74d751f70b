package rewrite

import (
	"sort"

	"recycledb/internal/core"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Proactive recycling (§IV-B): execute a slightly more expensive query whose
// intermediate result has high reuse potential.
//
//   - Top-N widening: topN(Q, n) is practically as cheap as topN(Q, 10000)
//     while the heap fits the cache, so the widened result is computed and
//     recycled; the requested prefix is re-derived by subsumption.
//   - Cube caching with selections: γg Fα(σp(c)(X)) becomes
//     γg Fα″(σp(c)(γg∪c Fα′(X))) when every selection column has few
//     distinct values; the inner cube is parameter-independent and caches.
//   - Cube caching with binning: a high-cardinality date range predicate is
//     split into contained year bins (answered from a cube extended with
//     year(c)) plus a residual range recomputed exactly (Fig. 5 right).
//
// The proactive variant is matched and inserted into the recycler graph on
// every trigger so its common parts accumulate references; it is executed
// once its cube is cached or has gathered enough references for a store
// decision, exactly as §IV-B prescribes.

// WideTopN is the widened top-N size (the paper's 10 000).
const WideTopN = 10000

// applyProactive returns a transformed tree to execute, or nil to keep the
// original. It may mutate root (the engine clones user plans first).
func (rw *Rewriter) applyProactive(root *plan.Node) (*plan.Node, error) {
	changed := widenTopN(root)
	out := root
	if pv, cubes := rw.buildCubeVariant(root); pv != nil {
		if err := pv.Resolve(rw.Cat); err == nil {
			mres := rw.Rec.MatchInsert(pv)
			execute := false
			for _, c := range cubes {
				nm := mres.ByNode[c]
				if nm == nil {
					continue
				}
				if e := rw.Rec.Cached(nm.G); e != nil {
					rw.Rec.Release(e)
					execute = true
					continue
				}
				// Once the cube has been executed and measured, only
				// keep paying the proactive overhead if the cube can
				// actually be cached profitably (its recompute cost
				// must exceed its materialization cost).
				cost, known, _, bytes := rw.Rec.NodeStats(nm.G)
				if known && bytes > 0 && cost < core.CopyCost(bytes) {
					continue
				}
				if rw.Rec.HR(nm.G) >= 1 || rw.Rec.Inflight(nm.G) {
					execute = true
				}
			}
			if execute {
				out = pv
				changed = true
			} else {
				// Not executed this time: the proactive variant still
				// accumulates references so a store decision can be
				// reached on a later trigger (§IV-B).
				for _, c := range cubes {
					if nm := mres.ByNode[c]; nm != nil {
						rw.Rec.AddRefTo(nm.G)
					}
				}
			}
		}
	}
	if !changed {
		return nil, nil
	}
	if err := out.Resolve(rw.Cat); err != nil {
		return nil, err
	}
	return out, nil
}

// widenTopN rewrites every topN(keys, n<WideTopN) into
// topN(keys, n) over topN(keys, WideTopN), in place.
func widenTopN(n *plan.Node) bool {
	changed := false
	var walk func(x *plan.Node)
	walk = func(x *plan.Node) {
		for _, c := range x.Children {
			walk(c)
		}
		if x.Op == plan.TopN && x.N < WideTopN {
			// Skip if the child is already a widened top-N.
			if len(x.Children) == 1 && x.Children[0].Op == plan.TopN {
				return
			}
			inner := plan.NewTopN(x.Children[0], append([]plan.SortKey(nil), x.Keys...), WideTopN)
			x.Children = []*plan.Node{inner}
			changed = true
		}
	}
	walk(n)
	return changed
}

// buildCubeVariant looks for aggregate-over-selection patterns and builds
// the proactive variant tree (a clone; root is untouched). It returns the
// variant and the cube aggregate nodes within it, or (nil, nil).
func (rw *Rewriter) buildCubeVariant(root *plan.Node) (*plan.Node, []*plan.Node) {
	pv := root.Clone()
	if err := pv.Resolve(rw.Cat); err != nil {
		return nil, nil
	}
	var cubes []*plan.Node
	var walk func(x *plan.Node)
	walk = func(x *plan.Node) {
		for _, c := range x.Children {
			walk(c)
		}
		if x.Op != plan.Aggregate || len(x.Children) != 1 || x.Children[0].Op != plan.Select {
			return
		}
		if cube := rw.rewriteCube(x); cube != nil {
			cubes = append(cubes, cube)
		}
	}
	walk(pv)
	if len(cubes) == 0 {
		return nil, nil
	}
	return pv, cubes
}

// rewriteCube rewrites one γg Fα(σp(X)) node in place per §IV-B and returns
// the cube aggregate node, or nil if no rule applies.
func (rw *Rewriter) rewriteCube(agg *plan.Node) *plan.Node {
	sel := agg.Children[0]
	x := sel.Children[0]
	predCols := expr.Cols(sel.Pred)
	if len(predCols) == 0 {
		return nil
	}
	// Classify predicate columns by distinct count in their base tables.
	var lowCard, highCard []string
	for _, c := range predCols {
		if x.Schema().ColIndex(c) < 0 {
			return nil // predicate over a computed column; no rule
		}
		d := rw.baseDistinct(x, c)
		if d > 0 && d <= proactiveDistinctLimit {
			lowCard = append(lowCard, c)
		} else {
			highCard = append(highCard, c)
		}
	}
	lower, upper, needProject, ok := plan.DecomposeAggs(agg.Aggs)
	if !ok {
		return nil
	}
	if len(highCard) == 0 {
		return rw.cubeWithSelections(agg, sel, x, lowCard, lower, upper, needProject)
	}
	if len(highCard) == 1 {
		return rw.cubeWithBinning(agg, sel, x, lowCard, highCard[0], lower, upper, needProject)
	}
	return nil
}

// baseDistinct finds the base table providing column col under x and returns
// its distinct count, or -1.
func (rw *Rewriter) baseDistinct(x *plan.Node, col string) int64 {
	var d int64 = -1
	x.Walk(func(n *plan.Node) {
		if d >= 0 || n.Op != plan.Scan {
			return
		}
		t, err := rw.Cat.Table(n.Table)
		if err != nil {
			return
		}
		if t.Schema.ColIndex(col) >= 0 {
			d = t.DistinctCount(col)
		}
	})
	return d
}

// cubeWithSelections pulls the selection above an extended-GROUP BY
// aggregation (Fig. 5 left). agg is mutated in place; the cube node is
// returned.
func (rw *Rewriter) cubeWithSelections(agg, sel, x *plan.Node, predCols []string, lower, upper []plan.AggSpec, needProject bool) *plan.Node {
	cubeGroup := unionCols(agg.GroupBy, predCols)
	cube := plan.NewAggregate(x, cubeGroup, lower...)
	sel2 := plan.NewSelect(cube, sel.Pred.Clone())
	outer := plan.NewAggregate(sel2, append([]string(nil), agg.GroupBy...), upper...)
	replaceNode(agg, outer, needProject, agg.GroupBy, agg.Aggs)
	return cube
}

// cubeWithBinning splits a single high-cardinality date range predicate into
// year bins plus a residual (Fig. 5 right). Only upper-bounded ranges
// (c <= hi / c < hi) are handled; other shapes keep the original plan.
func (rw *Rewriter) cubeWithBinning(agg, sel, x *plan.Node, lowCard []string, dateCol string, lower, upper []plan.AggSpec, needProject bool) *plan.Node {
	idx := x.Schema().ColIndex(dateCol)
	if idx < 0 || x.Schema()[idx].Typ != vector.Date {
		return nil
	}
	intervals, ok := core.AnalyzePred(sel.Pred, expr.Ident)
	if !ok {
		return nil
	}
	iv, ok := intervals[dateCol]
	if !ok || !iv.HasHi || iv.HasLo {
		return nil
	}
	// Every conjunct must reference either only low-cardinality columns
	// (re-applied on the cube) or only the date column (split into bins
	// plus residual); mixed conjuncts cannot be decomposed.
	if !conjunctsSeparable(sel.Pred, lowCard, dateCol) {
		return nil
	}
	hi := iv.Hi.I64
	hiYear := vector.YearOf(hi)
	binCol := "__bin_" + dateCol

	// Projection computing the bin column, passing through every column
	// the cube needs.
	need := unionCols(unionCols(agg.GroupBy, lowCard), aggArgCols(lower))
	need = unionCols(need, nil)
	var projs []plan.NamedExpr
	for _, c := range need {
		projs = append(projs, plan.P(expr.C(c), c))
	}
	projs = append(projs, plan.P(expr.YearOf(expr.C(dateCol)), binCol))
	proj := plan.NewProject(x, projs...)

	cubeGroup := unionCols(unionCols(agg.GroupBy, lowCard), []string{binCol})
	cube := plan.NewAggregate(proj, cubeGroup, cloneAggs(lower)...)

	// Contained side: whole years strictly below the bound, plus the
	// low-cardinality constraints re-applied on the cube.
	containedPred := expr.Expr(expr.Lt(expr.C(binCol), expr.Int(hiYear)))
	if lp := lowCardPred(sel.Pred, lowCard); lp != nil {
		containedPred = expr.AndOf(lp, containedPred)
	}
	ql := plan.NewAggregate(plan.NewSelect(cube, containedPred),
		append([]string(nil), agg.GroupBy...), cloneAggs(upper)...)

	// Residual side: the exact original predicate (which carries the hi
	// bound) restricted to the bound's year, recomputed from raw input.
	residPred := expr.AndOf(
		sel.Pred.Clone(),
		expr.Ge(expr.C(dateCol), expr.DateDays(vector.DaysFromDate(int(hiYear), 1, 1))),
	)
	qr := plan.NewAggregate(plan.NewSelect(x.Clone(), residPred),
		append([]string(nil), agg.GroupBy...), cloneAggs(lower)...)

	union := plan.NewUnion(ql, qr)
	outer := plan.NewAggregate(union, append([]string(nil), agg.GroupBy...), cloneAggs(upper)...)
	replaceNode(agg, outer, needProject, agg.GroupBy, agg.Aggs)
	return cube
}

// conjunctsSeparable reports whether every conjunct of p references either
// only lowCard columns or only the date column.
func conjunctsSeparable(p expr.Expr, lowCard []string, dateCol string) bool {
	set := make(map[string]struct{}, len(lowCard)+1)
	for _, c := range lowCard {
		set[c] = struct{}{}
	}
	pure := func(e expr.Expr) bool {
		cols := expr.Cols(e)
		onlyLow, onlyDate := true, true
		for _, c := range cols {
			if _, ok := set[c]; !ok {
				onlyLow = false
			}
			if c != dateCol {
				onlyDate = false
			}
		}
		return onlyLow || onlyDate
	}
	if and, ok := p.(*expr.And); ok {
		for _, e := range and.Es {
			if !pure(e) {
				return false
			}
		}
		return true
	}
	return pure(p)
}

// lowCardPred extracts the conjuncts of p that reference only lowCard
// columns, or nil.
func lowCardPred(p expr.Expr, lowCard []string) expr.Expr {
	set := make(map[string]struct{}, len(lowCard))
	for _, c := range lowCard {
		set[c] = struct{}{}
	}
	onlyLow := func(e expr.Expr) bool {
		for _, c := range expr.Cols(e) {
			if _, ok := set[c]; !ok {
				return false
			}
		}
		return true
	}
	if and, ok := p.(*expr.And); ok {
		var keep []expr.Expr
		for _, e := range and.Es {
			if onlyLow(e) {
				keep = append(keep, e.Clone())
			}
		}
		if len(keep) == 0 {
			return nil
		}
		return expr.AndOf(keep...)
	}
	if onlyLow(p) {
		return p.Clone()
	}
	return nil
}

// replaceNode overwrites dst with src's content, optionally wrapping with
// the avg-restoring projection.
func replaceNode(dst, src *plan.Node, needProject bool, groupBy []string, origAggs []plan.AggSpec) {
	if needProject {
		src = plan.NewProject(src, plan.FinalProjection(groupBy, origAggs)...)
	}
	*dst = *src
}

// unionCols merges column name lists preserving first-occurrence order.
func unionCols(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	seen := make(map[string]struct{}, len(a)+len(b))
	for _, s := range append(append([]string{}, a...), b...) {
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// aggArgCols collects the input columns referenced by aggregate arguments,
// sorted: the proactive cube's projection must have a deterministic column
// order or identical cubes would not unify in the recycler graph.
func aggArgCols(aggs []plan.AggSpec) []string {
	set := make(map[string]struct{})
	for _, a := range aggs {
		if a.Arg != nil {
			a.Arg.AddCols(set)
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func cloneAggs(aggs []plan.AggSpec) []plan.AggSpec {
	out := make([]plan.AggSpec, len(aggs))
	for i, a := range aggs {
		na := plan.AggSpec{Func: a.Func, As: a.As}
		if a.Arg != nil {
			na.Arg = a.Arg.Clone()
		}
		out[i] = na
	}
	return out
}
