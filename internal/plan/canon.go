package plan

import (
	"strconv"

	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// Key is a plan node's identity one level deep: its operator, its identity
// text (AppendCanon) and the ids of the children it is built over — graph
// node IDs in the recycler graph, memo ids in the optimizer. Ids start at 1,
// so a leaf's zero pair cannot collide with a real child.
type Key struct {
	Op     Op
	Params string
	Kids   [2]uint64
}

// Key returns n's key over its children's ids, its text rendered by
// AppendCanon with rename and names.
func (n *Node) Key(rename func(string) string, names bool, kids [2]uint64) Key {
	return Key{Op: n.Op, Params: string(n.AppendCanon(make([]byte, 0, 64), rename, names)), Kids: kids}
}

// AppendCanon appends n's identity text to b: the operator, then its
// parameters in brackets, the input columns they reference mapped through
// rename and literals in their typed spelling (vector.Datum.AppendCanon).
// Over the same children, equal texts compute the same columns of the same
// types. With names, the output names n assigns (AssignedNames) follow the
// parameters after " as ": the optimized-shape key and the optimizer's memo
// tell aliases apart. The recycler graph leaves them out and tracks them
// through name mappings (§III-A), so `sum(x) AS a` and `sum(x) AS b` are one
// graph node.
func (n *Node) AppendCanon(b []byte, rename func(string) string, names bool) []byte {
	renamed := func(s string, b []byte) []byte { return append(b, rename(s)...) }
	b = append(append(b, n.Op.String()...), '[')
	switch n.Op {
	case Scan:
		b = append(expr.AppendList(append(append(b, n.Table...), '('), n.Cols, appendString), ')')
	case TableFn:
		b = append(expr.AppendList(append(append(b, n.Fn...), '('), n.Args, vector.Datum.AppendCanon), ')')
	case Select:
		b = n.Pred.AppendCanon(b, rename)
	case Project:
		b = expr.AppendList(b, n.Projs, func(p NamedExpr, b []byte) []byte { return p.E.AppendCanon(b, rename) })
	case Aggregate:
		b = append(expr.AppendList(append(b, "by["...), n.GroupBy, renamed), "]agg["...)
		b = append(expr.AppendList(b, n.Aggs, func(a AggSpec, b []byte) []byte { return a.AppendCanon(b, rename) }), ']')
	case Join:
		b = append(expr.AppendList(append(append(b, n.JT.String()...), '['), n.LeftKeys, renamed), '=')
		b = append(expr.AppendList(b, n.RightKeys, renamed), ']')
	case TopN:
		b = strconv.AppendInt(append(AppendKeys(b, n.Keys, rename), " n="...), int64(n.N), 10)
	case Sort:
		b = AppendKeys(b, n.Keys, rename)
	case Limit:
		b = strconv.AppendInt(append(b, "n="...), int64(n.N), 10)
	case Cached:
		b = append(b, "cached"...)
	}
	if names {
		if as := n.AssignedNames(); as != nil {
			b = expr.AppendList(append(b, " as "...), as, appendString)
		}
	}
	return append(b, ']')
}

func appendString(s string, b []byte) []byte { return append(b, s...) }

// AppendCanon appends the aggregate's identity text, "sum(x)" or
// "count(*)", its argument's columns mapped through rename.
func (a AggSpec) AppendCanon(b []byte, rename func(string) string) []byte {
	b = append(append(b, a.Func.String()...), '(')
	if a.Arg == nil {
		return append(b, "*)"...)
	}
	return append(a.Arg.AppendCanon(b, rename), ')')
}

// AppendKeys appends the identity text of a sort order, "x:asc,y:desc",
// its columns mapped through rename.
func AppendKeys(b []byte, keys []SortKey, rename func(string) string) []byte {
	return expr.AppendList(b, keys, func(k SortKey, b []byte) []byte {
		if k.Desc {
			return append(append(b, rename(k.Col)...), ":desc"...)
		}
		return append(append(b, rename(k.Col)...), ":asc"...)
	})
}

// AssignedNames returns the output column names this node newly assigns (as
// opposed to passing through from a child), in output order. These are the
// names that receive query-unique suffixes in the recycler graph and flow
// into name mappings.
func (n *Node) AssignedNames() []string {
	switch n.Op {
	case Project:
		out := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			out[i] = p.As
		}
		return out
	case Aggregate:
		out := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			out[i] = a.As
		}
		return out
	case Join:
		if n.JT == LeftOuter {
			return []string{MatchCol}
		}
	}
	return nil
}
