package plan

import (
	"fmt"
	"strings"
)

// ParamString renders the node's operation parameters canonically, mapping
// referenced input column names through rename. Output names assigned by the
// node (projection aliases, aggregate result names) are NOT part of the
// parameter string: the paper matches operations and tracks assigned names
// through name mappings (§III-A), so `sum(x) AS a` and `sum(x) AS b` are the
// same operation.
func (n *Node) ParamString(rename func(string) string) string {
	switch n.Op {
	case Scan:
		return n.Table + "(" + strings.Join(n.Cols, ",") + ")"
	case TableFn:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = a.String()
		}
		return n.Fn + "(" + strings.Join(parts, ",") + ")"
	case Select:
		return n.Pred.Canon(rename)
	case Project:
		parts := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			parts[i] = p.E.Canon(rename)
		}
		return strings.Join(parts, ",")
	case Aggregate:
		gb := make([]string, len(n.GroupBy))
		for i, g := range n.GroupBy {
			gb[i] = rename(g)
		}
		as := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			if a.Arg == nil {
				as[i] = a.Func.String() + "(*)"
			} else {
				as[i] = a.Func.String() + "(" + a.Arg.Canon(rename) + ")"
			}
		}
		return "by[" + strings.Join(gb, ",") + "]agg[" + strings.Join(as, ",") + "]"
	case Join:
		lk := make([]string, len(n.LeftKeys))
		for i, k := range n.LeftKeys {
			lk[i] = rename(k)
		}
		rk := make([]string, len(n.RightKeys))
		for i, k := range n.RightKeys {
			rk[i] = rename(k)
		}
		return n.JT.String() + "[" + strings.Join(lk, ",") + "=" + strings.Join(rk, ",") + "]"
	case TopN:
		return fmt.Sprintf("%s n=%d", sortKeyString(n.Keys, rename), n.N)
	case Sort:
		return sortKeyString(n.Keys, rename)
	case Limit:
		return fmt.Sprintf("n=%d", n.N)
	case Union:
		return ""
	case Cached:
		return "cached"
	}
	return "?"
}

func sortKeyString(keys []SortKey, rename func(string) string) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = rename(k.Col) + ":" + dir
	}
	return strings.Join(parts, ",")
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
