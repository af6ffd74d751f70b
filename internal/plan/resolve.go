package plan

import (
	"fmt"
	"sort"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// Resolve computes output schemas bottom-up, binds all expressions, and
// derives each node's base-table lineage (Lineage). It must be called
// (once) before a plan is canonicalized or executed. Resolve is idempotent;
// rewrites that restructure a tree re-resolve it.
func (n *Node) Resolve(cat *catalog.Catalog) error {
	for _, c := range n.Children {
		if err := c.Resolve(cat); err != nil {
			return err
		}
	}
	return n.ResolveNode(cat)
}

// ResolveNode resolves n alone over children that are already resolved:
// Resolve's per-node step, for callers that assemble a tree one node at a
// time over resolved inputs and must not pay for re-walking them.
func (n *Node) ResolveNode(cat *catalog.Catalog) error {
	defer n.resolveLineage(cat)
	switch n.Op {
	case Scan:
		t, err := cat.Table(n.Table)
		if err != nil {
			return err
		}
		if len(n.Cols) == 0 {
			n.Cols = t.Schema.Names()
		}
		n.schema = make(catalog.Schema, len(n.Cols))
		for i, name := range n.Cols {
			j := t.Schema.ColIndex(name)
			if j < 0 {
				return fmt.Errorf("plan: table %s has no column %q", n.Table, name)
			}
			n.schema[i] = t.Schema[j]
		}
	case TableFn:
		f, err := cat.Func(n.Fn)
		if err != nil {
			return err
		}
		n.schema = f.Schema
	case Select:
		t, err := n.Pred.Bind(n.Children[0].schema)
		if err != nil {
			return err
		}
		if t != vector.Bool {
			return fmt.Errorf("plan: select predicate has type %v, want bool", t)
		}
		n.schema = n.Children[0].schema
	case Project:
		n.schema = make(catalog.Schema, len(n.Projs))
		for i, p := range n.Projs {
			t, err := p.E.Bind(n.Children[0].schema)
			if err != nil {
				return err
			}
			n.schema[i] = catalog.Column{Name: p.As, Typ: t}
		}
	case Aggregate:
		child := n.Children[0].schema
		n.schema = make(catalog.Schema, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			j := child.ColIndex(g)
			if j < 0 {
				return fmt.Errorf("plan: group-by column %q not in input", g)
			}
			n.schema = append(n.schema, child[j])
		}
		for _, a := range n.Aggs {
			var t vector.Type
			if a.Arg == nil {
				if a.Func != Count {
					return fmt.Errorf("plan: %v requires an argument", a.Func)
				}
				t = vector.Int64
			} else {
				at, err := a.Arg.Bind(child)
				if err != nil {
					return err
				}
				switch a.Func {
				case Count:
					t = vector.Int64
				case Avg:
					t = vector.Float64
				case Sum:
					if at == vector.Float64 {
						t = vector.Float64
					} else {
						t = vector.Int64
					}
				default: // Min, Max keep the argument type
					t = at
				}
			}
			n.schema = append(n.schema, catalog.Column{Name: a.As, Typ: t})
		}
	case Join:
		left, right := n.Children[0].schema, n.Children[1].schema
		if len(n.LeftKeys) != len(n.RightKeys) {
			return fmt.Errorf("plan: join key arity mismatch %d vs %d",
				len(n.LeftKeys), len(n.RightKeys))
		}
		for i := range n.LeftKeys {
			li := left.ColIndex(n.LeftKeys[i])
			ri := right.ColIndex(n.RightKeys[i])
			if li < 0 || ri < 0 {
				return fmt.Errorf("plan: join key %q/%q not found",
					n.LeftKeys[i], n.RightKeys[i])
			}
			lt, rt := left[li].Typ, right[ri].Typ
			if lt != rt && !(isNum(lt) && isNum(rt)) {
				return fmt.Errorf("plan: join key type mismatch %v vs %v", lt, rt)
			}
		}
		switch n.JT {
		case LeftSemi, LeftAnti:
			n.schema = left
		case LeftOuter:
			n.schema = append(append(catalog.Schema{}, left...), right...)
			n.schema = append(n.schema, catalog.Column{Name: MatchCol, Typ: vector.Int64})
		default:
			n.schema = append(append(catalog.Schema{}, left...), right...)
		}
		if err := uniqueNames(n.schema); err != nil {
			return fmt.Errorf("plan: join output: %w", err)
		}
	case TopN, Sort:
		child := n.Children[0].schema
		for _, k := range n.Keys {
			if child.ColIndex(k.Col) < 0 {
				return fmt.Errorf("plan: sort key %q not in input", k.Col)
			}
		}
		if n.Op == TopN && n.N <= 0 {
			return fmt.Errorf("plan: topn with N=%d", n.N)
		}
		n.schema = child
	case Limit:
		if n.N < 0 {
			return fmt.Errorf("plan: limit with N=%d", n.N)
		}
		n.schema = n.Children[0].schema
	case Cached:
		if len(n.schema) == 0 {
			return fmt.Errorf("plan: cached leaf without schema")
		}
	case Union:
		l, r := n.Children[0].schema, n.Children[1].schema
		if len(l) != len(r) {
			return fmt.Errorf("plan: union arity mismatch %d vs %d", len(l), len(r))
		}
		for i := range l {
			if l[i].Typ != r[i].Typ {
				return fmt.Errorf("plan: union column %d type mismatch %v vs %v",
					i, l[i].Typ, r[i].Typ)
			}
		}
		n.schema = l
	default:
		return fmt.Errorf("plan: unknown operator %d", n.Op)
	}
	return nil
}

// LineageAll is the sentinel lineage entry for subtrees whose base tables
// are unknown (table functions without declared lineage): conservatively,
// "depends on every table".
const LineageAll = "*"

// resolveLineage computes the node's base-table lineage: the sorted
// distinct set of tables the subtree reads. Table functions contribute
// their declared tables, or LineageAll when undeclared. Cached leaves
// contribute nothing — the replayed entry carries its own lineage.
func (n *Node) resolveLineage(cat *catalog.Catalog) {
	switch n.Op {
	case Scan:
		n.lineage = []string{n.Table}
	case TableFn:
		if f, err := cat.Func(n.Fn); err == nil && len(f.Tables) > 0 {
			n.lineage = append([]string(nil), f.Tables...)
			sort.Strings(n.lineage)
		} else {
			n.lineage = []string{LineageAll}
		}
	case Cached:
		n.lineage = nil
	default:
		n.lineage = nil
		for _, c := range n.Children {
			n.lineage = mergeLineage(n.lineage, c.lineage)
		}
	}
}

// mergeLineage unions two sorted distinct table lists. Lineages are never
// mutated once derived, so an empty side yields the other list itself.
func mergeLineage(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Lineage returns the base tables this subtree reads (sorted, distinct;
// LineageAll when unknown). Resolve must have run.
func (n *Node) Lineage() []string { return n.lineage }

func isNum(t vector.Type) bool {
	return t == vector.Int64 || t == vector.Float64 || t == vector.Date
}

func uniqueNames(s catalog.Schema) error {
	seen := make(map[string]struct{}, len(s))
	for _, c := range s {
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("duplicate column name %q", c.Name)
		}
		seen[c.Name] = struct{}{}
	}
	return nil
}
