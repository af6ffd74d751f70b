package plan

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
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

// InputCols returns the sorted distinct child-output column names this node
// references. Leaves return nil.
func (n *Node) InputCols() []string {
	set := make(map[string]struct{})
	switch n.Op {
	case Select:
		n.Pred.AddCols(set)
	case Project:
		for _, p := range n.Projs {
			p.E.AddCols(set)
		}
	case Aggregate:
		for _, g := range n.GroupBy {
			set[g] = struct{}{}
		}
		for _, a := range n.Aggs {
			if a.Arg != nil {
				a.Arg.AddCols(set)
			}
		}
	case Join:
		for _, k := range n.LeftKeys {
			set[k] = struct{}{}
		}
		for _, k := range n.RightKeys {
			set[k] = struct{}{}
		}
	case TopN, Sort:
		for _, k := range n.Keys {
			set[k.Col] = struct{}{}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
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

// erase is the rename function used for hash-keys: it hides column names so
// that only name-independent operator characteristics contribute.
func erase(string) string { return "#" }

// HashKey returns a hash of the operator characteristics that must match
// exactly (operator type and name-erased parameters; table name for scans).
// It indexes the per-node parent hash tables and the global leaf table of
// the recycler graph (§III-A).
func (n *Node) HashKey() uint64 {
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], int64(n.Op), 10)
	b = strconv.AppendInt(append(b, '|'), int64(len(n.Children)), 10)
	h := fnv.New64a()
	h.Write(append(append(b, '|'), n.ParamString(erase)...))
	return h.Sum64()
}

// SigOf returns the one-bit-per-column signature of a set of column names
// mapped through rename (an integer mask used to quickly eliminate matching
// candidates, §III-A).
func SigOf(cols []string, rename func(string) string) uint64 {
	var sig uint64
	for _, c := range cols {
		h := fnv.New64a()
		h.Write([]byte(rename(c)))
		sig |= 1 << (h.Sum64() % 64)
	}
	return sig
}

// Signature returns the node's column signature: for leaves, the output
// columns; for inner nodes, the referenced input columns mapped through
// rename (which agrees with the graph namespace once the child is matched).
func (n *Node) Signature(rename func(string) string) uint64 {
	switch n.Op {
	case Scan:
		return SigOf(n.Cols, rename)
	case TableFn:
		return SigOf([]string{n.ParamString(rename)}, rename)
	default:
		return SigOf(n.InputCols(), rename)
	}
}
