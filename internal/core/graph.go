// Package core implements the paper's primary contribution: the recycler for
// pipelined query evaluation. It contains the recycler graph (an AND-DAG of
// relational operators indexing the past workload and all cached results,
// §II-III), the benefit metric with true-cost/DMD accounting, importance
// factors and aging (§III-C), the recycler cache with its knapsack-style
// admission and replacement policies (§III-E), speculation support (§III-D),
// and subsumption edges (§IV-A).
//
// # Concurrency
//
// The recycler serves many queries at once, so its state is split into
// independent lock domains instead of one global mutex:
//
//   - Graph.mu (RWMutex) guards graph *structure* only: the node index,
//     per-node parent lists, child links and subsumption edges. Matching
//     runs almost entirely under the read lock; the write lock is taken
//     only to insert genuinely new nodes (with backwards validation
//     against concurrent inserts of the same node).
//   - Node.mu (per node) guards that node's mutable statistics: importance
//     factor, aging clock, base cost, cardinality, size estimate, and the
//     in-flight registration. Node mutexes are leaf locks: code never
//     acquires a second node mutex, the cache lock, or the graph lock while
//     holding one, so statistic updates from concurrent queries interleave
//     freely without deadlock.
//   - Cache.mu (one mutex, see cache.go) guards cache membership: the size
//     groups, every node's cached-entry publication, and the pins and
//     benefit of every entry. Admission scans, evicts and links under a
//     single hold, so replacement is all-or-nothing. It is never held
//     while a plan executes (delta extension runs its subplan outside it).
//
// Lock order is strictly graph -> cache -> node (any prefix may be
// skipped); Node.cached is additionally an atomic pointer so the cache-miss
// check and heuristic readers (benefit accounting, reference propagation)
// need no lock at all.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Node is a recycler graph node: one relational operator, Params its identity
// text (plan.Key: operator and parameters) in the graph's own column
// namespace. Exactly matching subtrees are unified, so a node can have many
// parents.
//
// Field guards: ID through Children and meta are immutable once the node is
// published by MatchInsert. parents and the subsumption edges are guarded by
// the owning Graph's lock. The statistics block is guarded by mu. cached is
// written only under the cache mutex and read atomically.
type Node struct {
	ID       uint64
	Op       plan.Op
	Params   string
	OutCols  []string
	OutTypes []vector.Type
	// Tables is the subtree's base-table lineage (sorted; may contain
	// plan.LineageAll when a table function's reads are undeclared). The
	// invalidation walk keys on it.
	Tables   []string
	Children []*Node

	// parents lists the nodes built over this one, in insertion order.
	// Guarded by the graph lock.
	parents []*Node

	// subsumers are nodes whose result subsumes this node's result
	// (specialized OR-edges, §IV-A). Guarded by the graph lock.
	subsumers []*Node
	meta      *SubMeta

	// mu guards the statistics below (§III-C) and the in-flight
	// registration. It is a leaf lock: never acquire any other lock while
	// holding it.
	mu        sync.Mutex
	hr        float64   // importance factor (aged lazily); guarded by mu
	ageSeq    uint64    // last aging fold; guarded by mu
	baseCost  plan.Work // guarded by mu
	costKnown bool      // guarded by mu
	card      int64     // guarded by mu
	estBytes  int64     // guarded by mu
	execCount int64     // guarded by mu
	inflight  *inflight // guarded by mu

	// cached points to this node's recycler-cache entry, or nil. Written
	// only under the cache mutex; read lock-free.
	cached atomic.Pointer[Entry]
}

// Graph is the recycler graph. Matching runs under a read lock; insertion
// takes the write lock and re-validates its candidates first (backwards
// validation in the spirit of the paper's node-granularity optimistic
// concurrency control: a concurrent insert of the same node is detected and
// adopted instead of duplicated).
//
// The paper finds match candidates through a hash table of leaves and one
// hash table per node over its parents, and prunes them with column
// signatures (§III-A). Here one map keyed by a node's exact identity does
// all of that: since exactly matching subtrees are unified, the graph nodes
// below a query node are known by ID once its children have matched, so
// (operator, parameters, child IDs) names at most one graph node and a match
// is one lookup.
type Graph struct {
	mu     sync.RWMutex
	nextID uint64             // guarded by mu
	index  map[plan.Key]*Node // guarded by mu
	// conflicts counts insert-time validation hits (another query
	// concurrently inserted the node we were about to add).
	conflicts int64 // guarded by mu
}

// keyOf returns the key query node n has over its children's matches: its
// identity text with columns in the graph namespace and output names left
// out (plan.Node.Key), and the rename that maps n's column names into that
// namespace.
func keyOf(n *plan.Node, childMatches []*NodeMatch) (plan.Key, func(string) string) {
	rename := renameFunc(childMatches)
	var kids [2]uint64
	for i, cm := range childMatches {
		kids[i] = cm.G.ID
	}
	return n.Key(rename, false, kids), rename
}

// NewGraph returns an empty recycler graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[plan.Key]*Node)}
}

// Size returns the number of nodes in the graph.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.index)
}

// Conflicts returns the number of optimistic-insert conflicts observed.
func (g *Graph) Conflicts() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.conflicts
}

// lookup returns the node indexed under k, or nil, under the read lock.
func (g *Graph) lookup(k plan.Key) *Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.index[k]
}

// NodeMatch annotates one query-plan node with its recycler graph node, the
// name mapping from query column names to graph column names (for this
// node's output columns), and whether the node existed before this query.
type NodeMatch struct {
	G       *Node
	Existed bool
	OutMap  map[string]string
}

// MatchResult is the outcome of matching/inserting a whole query tree.
type MatchResult struct {
	ByNode   map[*plan.Node]*NodeMatch
	Inserted int
	Matched  int
	// Cost is the wall time spent matching and inserting (Fig. 10).
	Cost time.Duration
}

// MatchInsert runs the bottom-up matching pass of Algorithm 1 over the query
// tree, inserting nodes that have no exact match, and returns the per-node
// annotations. The tree must be resolved.
func (g *Graph) MatchInsert(root *plan.Node) *MatchResult {
	start := time.Now()
	res := &MatchResult{ByNode: make(map[*plan.Node]*NodeMatch, root.Count())}
	g.matchNode(root, res)
	res.Cost = time.Since(start)
	return res
}

// matchNode matches or inserts one node, post-order.
func (g *Graph) matchNode(n *plan.Node, res *MatchResult) *NodeMatch {
	childMatches := make([]*NodeMatch, len(n.Children))
	for i, c := range n.Children {
		childMatches[i] = g.matchNode(c, res)
	}
	key, rename := keyOf(n, childMatches)

	// Fast path: find the exact match under the read lock.
	cand := g.lookup(key)
	if cand == nil {
		// Insert under the write lock, revalidating first (optimistic
		// concurrency control with backwards validation).
		g.mu.Lock()
		cand = g.index[key]
		if cand != nil {
			g.conflicts++
		} else {
			cand = g.insertLocked(n, key, rename, childMatches)
			g.mu.Unlock()
			nm := &NodeMatch{G: cand, Existed: false, OutMap: outMap(n, cand)}
			res.ByNode[n] = nm
			res.Inserted++
			return nm
		}
		g.mu.Unlock()
	}
	nm := &NodeMatch{G: cand, Existed: true, OutMap: outMap(n, cand)}
	res.ByNode[n] = nm
	res.Matched++
	return nm
}

// renameFunc builds the query-to-graph rename over the children's output
// mappings (the paper's name mapping M, §III-A).
func renameFunc(childMatches []*NodeMatch) func(string) string {
	if len(childMatches) == 0 {
		return func(s string) string { return s }
	}
	return func(s string) string {
		for _, cm := range childMatches {
			if gname, ok := cm.OutMap[s]; ok {
				return gname
			}
		}
		return s
	}
}

// outMap builds the positional output-name mapping query->graph for node n
// matched/inserted as graph node gn.
func outMap(n *plan.Node, gn *Node) map[string]string {
	names := n.Schema().Names()
	m := make(map[string]string, len(names))
	for i, qn := range names {
		m[qn] = gn.OutCols[i]
	}
	return m
}

// insertLocked copies the query node into the graph under key; the caller
// holds the write lock.
func (g *Graph) insertLocked(n *plan.Node, key plan.Key, rename func(string) string, childMatches []*NodeMatch) *Node {
	g.nextID++
	gn := &Node{
		ID:     g.nextID,
		Op:     n.Op,
		Params: key.Params,
		Tables: append([]string(nil), n.Lineage()...),
	}
	// Output columns: pass-through names keep their (mapped) graph names,
	// newly assigned names are made graph-unique with the node id suffix
	// (the paper appends a query-specific identifier, §III-B).
	assigned := make(map[string]struct{})
	for _, a := range n.AssignedNames() {
		assigned[a] = struct{}{}
	}
	sch := n.Schema()
	gn.OutCols = make([]string, len(sch))
	gn.OutTypes = make([]vector.Type, len(sch))
	for i, c := range sch {
		gn.OutTypes[i] = c.Typ
		if _, isNew := assigned[c.Name]; isNew {
			gn.OutCols[i] = fmt.Sprintf("%s@%d", c.Name, gn.ID)
		} else {
			gn.OutCols[i] = rename(c.Name)
		}
	}
	gn.Children = make([]*Node, len(childMatches))
	for i, cm := range childMatches {
		gn.Children[i] = cm.G
		cm.G.parents = append(cm.G.parents, gn)
	}
	g.index[key] = gn
	g.linkSubsumption(gn, n, rename)
	return gn
}

// RLocked runs f under the graph's read lock (structure snapshots:
// subsumption-edge traversal, introspection).
func (g *Graph) RLocked(f func()) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	f()
}

// Describe renders the node for debugging.
func (n *Node) Describe() string {
	return fmt.Sprintf("#%d %s out(%s)", n.ID, n.Params, strings.Join(n.OutCols, ","))
}
