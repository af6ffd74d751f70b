// Package plan defines logical query plan trees: the "optimized query trees"
// that flow through the paper's rewriter and are matched against / inserted
// into the recycler graph. Each node carries an operator kind, parameters,
// and an output schema. A node's identity is written here once
// (Node.AppendCanon, Key): its operator and its parameters, literals typed,
// over its children's ids. The recycler graph keys nodes on it with columns
// in the graph's namespace and output names left out (§III-A); the
// optimizer's memo and the engine's optimized-shape key (opt.ShapeKey) use
// the same text with the output names appended. No separate hash-keys or
// column signatures are kept.
package plan

import (
	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// Op is a logical operator kind.
type Op uint8

// Logical operator kinds.
const (
	// Scan reads a projection of a base table.
	Scan Op = iota
	// TableFn invokes a parameterized table function (a leaf).
	TableFn
	// Select filters rows by a boolean predicate.
	Select
	// Project computes named expressions.
	Project
	// Aggregate groups by columns and computes aggregates.
	Aggregate
	// Join is a hash join (inner, left-semi, left-anti, left-outer).
	Join
	// TopN returns the first N rows under a sort order (heap-based).
	TopN
	// Sort fully sorts its input.
	Sort
	// Limit passes through the first N rows.
	Limit
	// Union concatenates two inputs with identical schemas (bag union).
	Union
	// Cached is a synthetic leaf that replays a recycler cache entry. It
	// appears only in rewritten execution trees (subsumption derivations,
	// §IV-A), never in the recycler graph.
	Cached
)

// String returns the operator name.
func (o Op) String() string {
	return [...]string{"scan", "tablefn", "select", "project", "aggregate",
		"join", "topn", "sort", "limit", "union", "cached"}[o]
}

// AggFunc is an aggregate function.
type AggFunc uint8

// Aggregate functions.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
	Avg
)

// String returns the aggregate function name.
func (f AggFunc) String() string {
	return [...]string{"sum", "count", "min", "max", "avg"}[f]
}

// AggSpec is one aggregate computation: Func over Arg, named As in the
// output. Arg is nil for count(*).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	As   string
}

// NamedExpr is a projection item: expression E named As.
type NamedExpr struct {
	E  expr.Expr
	As string
}

// JoinType distinguishes join semantics.
type JoinType uint8

// Join types.
const (
	// Inner emits matching pairs.
	Inner JoinType = iota
	// LeftSemi emits left rows with at least one match.
	LeftSemi
	// LeftAnti emits left rows with no match.
	LeftAnti
	// LeftOuter emits all left rows; unmatched right columns are
	// zero-filled and the join's Matched pseudo-column (appended as the
	// last output column, named by MatchCol) is 0. The engine has no
	// NULLs; TPC-H Q13 counts matches via this column.
	LeftOuter
)

// String returns the join type name.
func (t JoinType) String() string {
	return [...]string{"inner", "semi", "anti", "louter"}[t]
}

// MatchCol is the name of the pseudo-column appended by LeftOuter joins.
const MatchCol = "__matched"

// SortKey orders by a named column.
type SortKey struct {
	Col  string
	Desc bool
}

// Node is a logical plan node. Exactly the fields relevant to Op are set.
type Node struct {
	Op       Op
	Children []*Node

	// Scan fields.
	Table string
	Cols  []string

	// TableFn fields.
	Fn   string
	Args []vector.Datum

	// Select predicate.
	Pred expr.Expr

	// Project items.
	Projs []NamedExpr

	// Aggregate fields.
	GroupBy []string
	Aggs    []AggSpec

	// Join fields.
	JT                  JoinType
	LeftKeys, RightKeys []string

	// TopN / Sort keys and TopN / Limit count.
	Keys []SortKey
	N    int

	schema catalog.Schema
	// lineage is the subtree's base-table set, derived by Resolve.
	lineage []string
}

// NewScan builds a base-table scan of the named columns.
func NewScan(table string, cols ...string) *Node {
	return &Node{Op: Scan, Table: table, Cols: cols}
}

// NewTableFn builds a table-function leaf.
func NewTableFn(fn string, args ...vector.Datum) *Node {
	return &Node{Op: TableFn, Fn: fn, Args: args}
}

// NewSelect builds a filter over child.
func NewSelect(child *Node, pred expr.Expr) *Node {
	return &Node{Op: Select, Children: []*Node{child}, Pred: pred}
}

// NewProject builds a projection over child.
func NewProject(child *Node, projs ...NamedExpr) *Node {
	return &Node{Op: Project, Children: []*Node{child}, Projs: projs}
}

// P is shorthand for a projection item.
func P(e expr.Expr, as string) NamedExpr { return NamedExpr{E: e, As: as} }

// NewAggregate builds a grouped aggregation over child.
func NewAggregate(child *Node, groupBy []string, aggs ...AggSpec) *Node {
	return &Node{Op: Aggregate, Children: []*Node{child}, GroupBy: groupBy, Aggs: aggs}
}

// A is shorthand for an aggregate spec.
func A(f AggFunc, arg expr.Expr, as string) AggSpec {
	return AggSpec{Func: f, Arg: arg, As: as}
}

// NewJoin builds a hash join of left and right on equal key columns.
func NewJoin(jt JoinType, left, right *Node, leftKeys, rightKeys []string) *Node {
	return &Node{Op: Join, JT: jt, Children: []*Node{left, right},
		LeftKeys: leftKeys, RightKeys: rightKeys}
}

// NewTopN builds a top-N over child: the first n rows of the stable sort by
// keys, tied rows in arrival order.
func NewTopN(child *Node, keys []SortKey, n int) *Node {
	return &Node{Op: TopN, Children: []*Node{child}, Keys: keys, N: n}
}

// NewSort builds a full sort over child.
func NewSort(child *Node, keys ...SortKey) *Node {
	return &Node{Op: Sort, Children: []*Node{child}, Keys: keys}
}

// NewLimit passes through the first n rows of child.
func NewLimit(child *Node, n int) *Node {
	return &Node{Op: Limit, Children: []*Node{child}, N: n}
}

// NewUnion concatenates two same-schema inputs.
func NewUnion(left, right *Node) *Node {
	return &Node{Op: Union, Children: []*Node{left, right}}
}

// NewCached builds a synthetic leaf with a preset schema that the rewriter
// decorates with a cache-replay. It survives Resolve unchanged.
func NewCached(schema catalog.Schema) *Node {
	return &Node{Op: Cached, schema: schema}
}

// Schema returns the node's resolved output schema. Resolve must have run.
func (n *Node) Schema() catalog.Schema { return n.schema }

// Walk visits n and its descendants pre-order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// WalkPost visits n and its descendants post-order (children first).
func (n *Node) WalkPost(f func(*Node)) {
	for _, c := range n.Children {
		c.WalkPost(f)
	}
	f(n)
}

// Count returns the number of nodes in the tree.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// String renders the plan tree, one node per line, indented by depth.
func (n *Node) String() string {
	var render func(x *Node, depth int) string
	render = func(x *Node, depth int) string {
		s := ""
		for i := 0; i < depth; i++ {
			s += "  "
		}
		s += x.Describe() + "\n"
		for _, c := range x.Children {
			s += render(c, depth+1)
		}
		return s
	}
	return render(n, 0)
}

// Describe returns a one-line description of this node: its identity text
// without output names.
func (n *Node) Describe() string { return string(n.AppendCanon(nil, expr.Ident, false)) }
