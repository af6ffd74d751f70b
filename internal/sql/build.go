package sql

import (
	"fmt"
	"strings"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Template is a compiled statement that may contain placeholders. A
// zero-parameter template's plan is fully resolved; a parameterized one
// resolves after Bind substitutes literals. Build one with NewTemplate;
// Plan must not change afterwards, or ShapeKey would describe another plan.
type Template struct {
	Plan      *plan.Node
	NumParams int
	// shape is Plan's shape key, rendered once, cut at the placeholders.
	shape plan.ShapeTemplate
}

// NewTemplate returns the template of plan pl with nparams parameters, its
// shape key rendered (ShapeKey).
func NewTemplate(pl *plan.Node, nparams int) *Template {
	return &Template{Plan: pl, NumParams: nparams, shape: plan.NewShapeTemplate(pl)}
}

// template parses the rest of the statement as a SELECT and builds its
// (possibly parameterized) plan template against cat. The plan is the
// "optimized tree" handed to the recycler: single-table predicates are
// pushed below joins, equality predicates across tables become hash-join
// keys, and ORDER BY + LIMIT fuses into a top-N.
func (p *parser) template(cat *catalog.Catalog) (*Template, error) {
	st, err := p.selectStmt()
	if err := p.end(err); err != nil {
		return nil, err
	}
	st.nparams = p.nparams
	pl, err := build(st, cat)
	if err != nil {
		return nil, err
	}
	return NewTemplate(pl, st.nparams), nil
}

// Bind clones the template plan and substitutes args (one per placeholder,
// in order). The bound plan is unresolved; the engine resolves it as it
// does every user plan. Identical bindings yield canonically identical
// plans, so recycler matching works across executions of a prepared
// statement.
func (t *Template) Bind(args []vector.Datum) (*plan.Node, error) {
	if err := t.arity(args); err != nil {
		return nil, err
	}
	p := t.Plan.Clone()
	if t.NumParams == 0 {
		return p, nil
	}
	lits := make([]*expr.Lit, len(args))
	for i, d := range args {
		lits[i] = &expr.Lit{D: d}
	}
	if err := p.BindParams(lits); err != nil {
		return nil, err
	}
	return p, nil
}

// ShapeKey returns the shape key (opt.ShapeKey) of the plan Bind(args)
// returns, without binding: the template's key text with args spliced in
// at its parameter slots, in their canonical spelling
// (vector.Datum.AppendCanon).
func (t *Template) ShapeKey(args []vector.Datum) (string, error) {
	if err := t.arity(args); err != nil {
		return "", err
	}
	return t.shape.Key(args), nil
}

func (t *Template) arity(args []vector.Datum) error {
	if len(args) != t.NumParams {
		return fmt.Errorf("sql: statement wants %d parameters, got %d", t.NumParams, len(args))
	}
	return nil
}

// Normalize renders src in a canonical textual form for plan-cache keying:
// tokens separated by single spaces, keywords and aggregate names
// lowercased, string literals requoted, comments and statement terminators
// dropped.
// Texts that lex differently stay distinct (a miss, never a wrong hit); on
// a lex error src is returned unchanged.
func Normalize(src string) string {
	toks, err := lex(src)
	if err != nil {
		return src
	}
	var b strings.Builder
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if t.kind == tokSymbol && t.text == ";" {
			continue
		}
		txt := t.text
		switch t.kind {
		case tokIdent:
			if lower := strings.ToLower(txt); keywords[lower] || aggFns[lower] {
				txt = lower
			}
		case tokString:
			txt = "'" + strings.ReplaceAll(txt, "'", "''") + "'"
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(txt)
	}
	return b.String()
}

func build(st *selectStmt, cat *catalog.Catalog) (*plan.Node, error) {
	if len(st.tables) == 0 {
		return nil, fmt.Errorf("sql: no tables")
	}
	// Resolve table schemas and column ownership.
	type src struct {
		ref    tableRef
		schema catalog.Schema
	}
	srcs := make([]src, len(st.tables))
	owner := make(map[string]int)
	for i, tr := range st.tables {
		var sch catalog.Schema
		if tr.fnArgs != nil {
			fn, err := cat.Func(tr.name)
			if err != nil {
				return nil, err
			}
			sch = fn.Schema
		} else {
			t, err := cat.Table(tr.name)
			if err != nil {
				return nil, err
			}
			sch = t.Schema
		}
		srcs[i] = src{ref: tr, schema: sch}
		for _, c := range sch {
			if _, dup := owner[c.Name]; dup {
				return nil, fmt.Errorf("sql: ambiguous column %q across tables", c.Name)
			}
			owner[c.Name] = i
		}
	}
	ownerOf := func(e expr.Expr) (int, bool) {
		cols := expr.Cols(e)
		if len(cols) == 0 {
			return -1, false
		}
		first, ok := owner[cols[0]]
		if !ok {
			return -1, false
		}
		for _, c := range cols[1:] {
			o, ok := owner[c]
			if !ok || o != first {
				return -1, false
			}
		}
		return first, true
	}

	// Partition WHERE conjuncts.
	var conjuncts []expr.Expr
	if st.where != nil {
		if and, ok := st.where.(*expr.And); ok {
			conjuncts = and.Es
		} else {
			conjuncts = []expr.Expr{st.where}
		}
	}
	perTable := make([][]expr.Expr, len(srcs))
	type joinPred struct {
		a, b   int
		ca, cb string
	}
	var joins []joinPred
	var residual []expr.Expr
	for _, c := range conjuncts {
		if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.EQ {
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok {
				lo, lfound := owner[lc.Name]
				ro, rfound := owner[rc.Name]
				if lfound && rfound && lo != ro {
					joins = append(joins, joinPred{a: lo, b: ro, ca: lc.Name, cb: rc.Name})
					continue
				}
			}
		}
		if o, ok := ownerOf(c); ok {
			perTable[o] = append(perTable[o], c)
			continue
		}
		residual = append(residual, c)
	}

	// Base plans: scans / function calls with pushed-down filters.
	plans := make([]*plan.Node, len(srcs))
	for i, s := range srcs {
		var p *plan.Node
		if s.ref.fnArgs != nil {
			p = plan.NewTableFn(s.ref.name, s.ref.fnArgs...)
		} else {
			p = plan.NewScan(s.ref.name)
		}
		if len(perTable[i]) > 0 {
			p = plan.NewSelect(p, expr.AndOf(cloneAll(perTable[i])...))
		}
		plans[i] = p
	}

	// Join left to right, preferring connected tables.
	joined := map[int]bool{0: true}
	cur := plans[0]
	for len(joined) < len(srcs) {
		picked := -1
		var lk, rk []string
		for i := range srcs {
			if joined[i] {
				continue
			}
			var lks, rks []string
			for _, jp := range joins {
				switch {
				case joined[jp.a] && jp.b == i:
					lks = append(lks, jp.ca)
					rks = append(rks, jp.cb)
				case joined[jp.b] && jp.a == i:
					lks = append(lks, jp.cb)
					rks = append(rks, jp.ca)
				}
			}
			if len(lks) > 0 {
				picked, lk, rk = i, lks, rks
				break
			}
		}
		if picked < 0 {
			// No connecting predicate: cross join the next table.
			for i := range srcs {
				if !joined[i] {
					picked = i
					break
				}
			}
		}
		cur = plan.NewJoin(plan.Inner, cur, plans[picked], lk, rk)
		joined[picked] = true
	}
	if len(residual) > 0 {
		cur = plan.NewSelect(cur, expr.AndOf(cloneAll(residual)...))
	}

	// Aggregation.
	hasAgg := false
	for _, it := range st.items {
		if it.agg != nil {
			hasAgg = true
		}
	}
	if hasAgg || len(st.groupBy) > 0 {
		// GROUP BY may reference computed select aliases (e.g.
		// "year(day) AS y ... GROUP BY y"): compute them in a
		// pre-projection together with the pass-through columns the
		// aggregate arguments need.
		itemByAlias := make(map[string]selectItem)
		for _, it := range st.items {
			if it.agg == nil && !it.star {
				itemByAlias[it.as] = it
			}
		}
		needsPre := false
		for _, g := range st.groupBy {
			if it, ok := itemByAlias[g]; ok {
				if _, plain := it.ex.(*expr.Col); !plain {
					needsPre = true
				}
			}
		}
		if needsPre {
			var pre []plan.NamedExpr
			seen := make(map[string]bool)
			for _, g := range st.groupBy {
				if it, ok := itemByAlias[g]; ok {
					pre = append(pre, plan.P(it.ex.Clone(), g))
				} else {
					pre = append(pre, plan.P(expr.C(g), g))
				}
				seen[g] = true
			}
			// Pass through the columns aggregate arguments read.
			argCols := make(map[string]struct{})
			for _, it := range st.items {
				if it.agg != nil && it.agg.arg != nil {
					it.agg.arg.AddCols(argCols)
				}
			}
			for c := range argCols {
				if !seen[c] {
					pre = append(pre, plan.P(expr.C(c), c))
					seen[c] = true
				}
			}
			cur = plan.NewProject(cur, pre...)
		}
		var aggs []plan.AggSpec
		for _, it := range st.items {
			if it.agg == nil {
				continue
			}
			var f plan.AggFunc
			switch it.agg.fn {
			case "sum":
				f = plan.Sum
			case "count":
				f = plan.Count
			case "avg":
				f = plan.Avg
			case "min":
				f = plan.Min
			case "max":
				f = plan.Max
			}
			aggs = append(aggs, plan.AggSpec{Func: f, Arg: it.agg.arg, As: it.as})
		}
		for _, it := range st.items {
			if it.agg != nil || it.star {
				continue
			}
			if contains(st.groupBy, it.as) {
				continue
			}
			if c, ok := it.ex.(*expr.Col); ok && contains(st.groupBy, c.Name) {
				continue
			}
			return nil, fmt.Errorf("sql: non-aggregated item %q must be a GROUP BY column", it.as)
		}
		cur = plan.NewAggregate(cur, st.groupBy, aggs...)
		if st.having != nil {
			cur = plan.NewSelect(cur, st.having)
		}
		// Restore the SELECT order and names.
		var projs []plan.NamedExpr
		for _, it := range st.items {
			if it.star {
				return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregates")
			}
			switch {
			case it.agg != nil:
				projs = append(projs, plan.P(expr.C(it.as), it.as))
			case contains(st.groupBy, it.as):
				projs = append(projs, plan.P(expr.C(it.as), it.as))
			default:
				projs = append(projs, plan.P(it.ex, it.as))
			}
		}
		cur = plan.NewProject(cur, projs...)
	} else if !(len(st.items) == 1 && st.items[0].star) {
		var projs []plan.NamedExpr
		for _, it := range st.items {
			if it.star {
				return nil, fmt.Errorf("sql: SELECT * must be the only item")
			}
			projs = append(projs, plan.P(it.ex, it.as))
		}
		cur = plan.NewProject(cur, projs...)
	}

	// Ordering and limit.
	switch {
	case len(st.orderBy) > 0 && st.limit >= 0:
		cur = plan.NewTopN(cur, sortKeys(st.orderBy), st.limit)
	case len(st.orderBy) > 0:
		cur = plan.NewSort(cur, sortKeys(st.orderBy)...)
	case st.limit >= 0:
		cur = plan.NewLimit(cur, st.limit)
	}
	// Parameterized templates resolve after binding; placeholders cannot
	// type-check yet.
	if st.nparams == 0 {
		if err := cur.Resolve(cat); err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
	}
	return cur, nil
}

func cloneAll(es []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

func sortKeys(items []orderItem) []plan.SortKey {
	out := make([]plan.SortKey, len(items))
	for i, it := range items {
		out[i] = plan.SortKey{Col: it.col, Desc: it.desc}
	}
	return out
}
