package opt

import (
	"sort"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// Predicate pushdown. pushPreds carries a bag of conjuncts downward,
// absorbing every Select it meets, and re-emits each conjunct as deep as it
// legally goes: through projections (by substituting item expressions for
// output names), into the matching side of a join, below sorts, and below
// aggregates when the conjunct filters whole groups. Wherever conjuncts are
// emitted they form a canonical chain of single-conjunct Selects — under
// fused execution the chain costs the same as one conjunctive filter
// (selection vectors refine in place), but each chain prefix is a distinct,
// independently cacheable recycler subtree, so variants of a template that
// share their literal-free conjuncts share warm prefixes too.

// cpred is a conjunct with its canonicalization, the unit of chain building.
type cpred struct {
	e     expr.Expr
	canon string
	lits  bool // references literals or parameters
}

// canonPreds dedups conjuncts by canonical string (keeping the first) and
// sorts them into canonical chain order: literal-free conjuncts first
// (innermost — identical across all bindings of a template), then by
// canonical string.
func canonPreds(preds []expr.Expr) []cpred {
	seen := make(map[string]struct{}, len(preds))
	cps := make([]cpred, 0, len(preds))
	for _, p := range preds {
		c := string(p.AppendCanon(nil, expr.Ident))
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		cps = append(cps, cpred{e: p, canon: c, lits: hasLiterals(p)})
	}
	sort.SliceStable(cps, func(i, j int) bool {
		if cps[i].lits != cps[j].lits {
			return !cps[i].lits
		}
		return cps[i].canon < cps[j].canon
	})
	return cps
}

// hasLiterals reports whether e embeds a literal, parameter, IN-list, or
// LIKE pattern — anything that varies across bindings of a template.
func hasLiterals(e expr.Expr) bool {
	found := false
	_, _ = expr.RewriteLeaves(e, func(x expr.Expr) (expr.Expr, error) {
		switch x.(type) {
		case *expr.Lit, *expr.Param, *expr.InList, *expr.Like:
			found = true
		}
		return x, nil
	})
	return found
}

// wrapChain wraps child in the canonical Select chain for preds.
func wrapChain(child *plan.Node, preds []expr.Expr) *plan.Node {
	for _, p := range canonPreds(preds) {
		child = plan.NewSelect(child, p.e)
	}
	return child
}

// pushPreds pushes the carried conjuncts plus any Selects found in n's
// subtree as deep as legal, returning the rebuilt subtree. The tree must be
// resolved (child schemas route join conjuncts); the caller re-resolves the
// result.
func pushPreds(n *plan.Node, preds []expr.Expr) *plan.Node {
	switch n.Op {
	case plan.Select:
		preds = append(preds, expr.Conjuncts(n.Pred)...)
		return pushPreds(n.Children[0], preds)

	case plan.Project:
		// A conjunct over projection outputs filters the same rows below
		// the projection once output names are substituted with their
		// defining expressions.
		var below, keep []expr.Expr
		for _, p := range preds {
			if q, ok := substProject(p, n.Projs); ok {
				below = append(below, q)
			} else {
				keep = append(keep, p)
			}
		}
		n.Children[0] = pushPreds(n.Children[0], below)
		return wrapChain(n, keep)

	case plan.Aggregate:
		// Conjuncts over group-key columns filter whole groups and commute
		// with grouping. Column-free conjuncts must stay above: a scalar
		// aggregate of an empty input still emits one row, so filtering
		// the input is not the same as filtering the output.
		var below, keep []expr.Expr
		gb := make(map[string]struct{}, len(n.GroupBy))
		for _, g := range n.GroupBy {
			gb[g] = struct{}{}
		}
		for _, p := range preds {
			cols := expr.Cols(p)
			if len(cols) > 0 && allIn(cols, gb) {
				below = append(below, p)
			} else {
				keep = append(keep, p)
			}
		}
		n.Children[0] = pushPreds(n.Children[0], below)
		return wrapChain(n, keep)

	case plan.Join:
		return pushJoin(n, preds)

	case plan.Sort:
		// A full sort keeps every row; filtering before or after yields the
		// same rows, and survivors keep their relative order.
		n.Children[0] = pushPreds(n.Children[0], preds)
		return n

	default:
		// Scan, TableFn, Cached, TopN, Limit, Union: barriers. TopN and
		// Limit choose rows by position, so filtering below them changes
		// the result; Union sides are positional and conjuncts over the
		// union schema need no per-side renaming machinery to justify.
		for i, c := range n.Children {
			n.Children[i] = pushPreds(c, nil)
		}
		return wrapChain(n, preds)
	}
}

// pushJoin routes conjuncts into the join side that can evaluate them.
func pushJoin(n *plan.Node, preds []expr.Expr) *plan.Node {
	left := nameSet(n.Children[0].Schema().Names())
	right := nameSet(n.Children[1].Schema().Names())
	var toLeft, toRight, keep []expr.Expr
	for _, p := range preds {
		cols := expr.Cols(p)
		switch {
		case allIn(cols, left):
			// Left-only conjuncts commute with every join type here: inner
			// and semi/anti/outer joins all emit (or reject) left rows
			// independently of other left rows.
			toLeft = append(toLeft, p)
		case n.JT == plan.Inner && allIn(cols, right):
			toRight = append(toRight, p)
		default:
			// Cross-side conjuncts, and right-side conjuncts of non-inner
			// joins (for LeftOuter, filtering the right input would turn
			// matches into non-matches).
			keep = append(keep, p)
		}
	}
	n.Children[0] = pushPreds(n.Children[0], toLeft)
	n.Children[1] = pushPreds(n.Children[1], toRight)
	return wrapChain(n, keep)
}

// substProject rewrites p (a conjunct over the projection's output schema)
// into an equivalent conjunct over the projection's input by substituting
// each referenced output name with a clone of its defining expression.
func substProject(p expr.Expr, projs []plan.NamedExpr) (expr.Expr, bool) {
	defs := make(map[string]expr.Expr, len(projs))
	for _, it := range projs {
		defs[it.As] = it.E
	}
	for _, c := range expr.Cols(p) {
		if _, ok := defs[c]; !ok {
			return nil, false
		}
	}
	q, err := expr.RewriteLeaves(p.Clone(), func(x expr.Expr) (expr.Expr, error) {
		if col, ok := x.(*expr.Col); ok {
			return defs[col.Name].Clone(), nil
		}
		return x, nil
	})
	if err != nil {
		return nil, false
	}
	return q, true
}

func nameSet(names []string) map[string]struct{} {
	s := make(map[string]struct{}, len(names))
	for _, n := range names {
		s[n] = struct{}{}
	}
	return s
}

func allIn(cols []string, set map[string]struct{}) bool {
	for _, c := range cols {
		if _, ok := set[c]; !ok {
			return false
		}
	}
	return true
}
