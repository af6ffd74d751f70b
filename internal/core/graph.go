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
//   - Graph.mu (RWMutex) guards graph *structure* only: the leaf hash
//     table, per-node parent indexes, child links, subsumption edges, and
//     node counts. Matching runs almost entirely under the read lock; the
//     write lock is taken only to insert genuinely new nodes (with
//     backwards validation against concurrent inserts of the same node).
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Node is a recycler graph node: one relational operator with its parameters
// in the graph's own column namespace. Exactly matching subtrees are unified,
// so a node can have many parents.
//
// Field guards: ID through Children and meta are immutable once the node is
// published by MatchInsert. parents and the subsumption edges are guarded by
// the owning Graph's lock. The statistics block is guarded by mu. cached is
// written only under the cache mutex and read atomically.
type Node struct {
	ID       uint64
	Op       plan.Op
	HashKey  uint64
	Sig      uint64
	Params   string
	OutCols  []string
	OutTypes []vector.Type
	// Tables is the subtree's base-table lineage (sorted; may contain
	// plan.LineageAll when a table function's reads are undeclared). The
	// invalidation walk keys on it.
	Tables   []string
	Children []*Node

	// parents is the per-node hash index used to find matching
	// candidates one level up (§III-A). Guarded by the graph lock.
	parents map[uint64][]*Node

	// subsumers are nodes whose result subsumes this node's result
	// (specialized OR-edges, §IV-A); subsumees is the inverse. Guarded by
	// the graph lock.
	subsumers []*Node
	subsumees []*Node
	meta      *SubMeta

	// mu guards the statistics below (§III-C) and the in-flight
	// registration. It is a leaf lock: never acquire any other lock while
	// holding it.
	mu        sync.Mutex
	hr        float64       // importance factor (aged lazily); guarded by mu
	ageSeq    uint64        // last aging fold; guarded by mu
	baseCost  time.Duration // guarded by mu
	costKnown bool          // guarded by mu
	card      int64         // guarded by mu
	estBytes  int64         // guarded by mu
	execCount int64         // guarded by mu
	inflight  *inflight     // guarded by mu

	// cached points to this node's recycler-cache entry, or nil. Written
	// only under the cache mutex; read lock-free.
	cached atomic.Pointer[Entry]
}

// Graph is the recycler graph. Matching runs under a read lock; insertion
// takes the write lock and re-validates its candidates first (backwards
// validation in the spirit of the paper's node-granularity optimistic
// concurrency control: a concurrent insert of the same node is detected and
// adopted instead of duplicated).
type Graph struct {
	mu     sync.RWMutex
	nextID uint64             // guarded by mu
	leaves map[uint64][]*Node // guarded by mu
	nodes  int                // guarded by mu
	// conflicts counts insert-time validation hits (another query
	// concurrently inserted the node we were about to add).
	conflicts int64 // guarded by mu
}

// NewGraph returns an empty recycler graph.
func NewGraph() *Graph {
	return &Graph{leaves: make(map[uint64][]*Node)}
}

// Size returns the number of nodes in the graph.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes
}

// Conflicts returns the number of optimistic-insert conflicts observed.
func (g *Graph) Conflicts() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.conflicts
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
	rename := renameFunc(childMatches)
	hk := n.HashKey()
	sig := n.Signature(rename)
	params := n.ParamString(rename)

	// Fast path: find an exact match under the read lock.
	g.mu.RLock()
	cand := g.findExactLocked(n, hk, sig, params, childMatches)
	g.mu.RUnlock()
	if cand == nil {
		// Insert under the write lock, revalidating first (optimistic
		// concurrency control with backwards validation).
		g.mu.Lock()
		cand = g.findExactLocked(n, hk, sig, params, childMatches)
		if cand != nil {
			g.conflicts++
		} else {
			cand = g.insertLocked(n, hk, sig, params, rename, childMatches)
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

// findExactLocked implements matching over the candidate lists: leaves come from
// the global leaf hash table, inner nodes from the matched child's parent
// index. Since exactly matching subtrees are unified there is at most one
// match (§III-A).
func (g *Graph) findExactLocked(n *plan.Node, hk, sig uint64, params string, childMatches []*NodeMatch) *Node {
	var cands []*Node
	if len(childMatches) == 0 {
		cands = g.leaves[hk]
	} else {
		cands = childMatches[0].G.parents[hk]
	}
	for _, c := range cands {
		if c.Sig != sig || c.Op != n.Op || c.Params != params {
			continue
		}
		if len(c.Children) != len(childMatches) {
			continue
		}
		ok := true
		for i, cm := range childMatches {
			if c.Children[i] != cm.G {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
	return nil
}

// insertLocked copies the query node into the graph; the caller holds the write lock.
func (g *Graph) insertLocked(n *plan.Node, hk, sig uint64, params string, rename func(string) string, childMatches []*NodeMatch) *Node {
	g.nextID++
	gn := &Node{
		ID:      g.nextID,
		Op:      n.Op,
		HashKey: hk,
		Sig:     sig,
		Params:  params,
		Tables:  append([]string(nil), n.Lineage()...),
		parents: make(map[uint64][]*Node),
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
		cm.G.parents[hk] = append(cm.G.parents[hk], gn)
	}
	if len(childMatches) == 0 {
		g.leaves[hk] = append(g.leaves[hk], gn)
	}
	g.nodes++
	g.linkSubsumption(gn, n, rename)
	return gn
}

// Truncate removes nodes that have not been referenced since cutoffSeq and
// have no cached result, no in-flight producer, and no surviving parents
// (§II: "the graph can, e.g., be truncated by periodically removing subtrees
// that have not been accessed for some time"). It returns the number of
// nodes removed. Removal proceeds top-down so shared subtrees survive while
// any referencing parent survives. Truncation of a node races benignly with
// a concurrent admission publishing a result for it: the entry stays
// replayable and is reclaimed by the next flush.
func (g *Graph) Truncate(cutoffSeq uint64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := 0
	for {
		victims := g.collectVictimsLocked(cutoffSeq)
		if len(victims) == 0 {
			return removed
		}
		for _, v := range victims {
			g.removeNodeLocked(v)
			removed++
		}
	}
}

// collectVictimsLocked finds currently removable nodes (no parents, stale, not
// cached, not in flight).
func (g *Graph) collectVictimsLocked(cutoffSeq uint64) []*Node {
	var out []*Node
	seen := make(map[*Node]struct{})
	var walk func(n *Node)
	walk = func(n *Node) {
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		parents := 0
		//recycledb:nondet-ok — commutative count over the parent index
		for _, ps := range n.parents {
			parents += len(ps)
		}
		n.mu.Lock()
		stale := n.ageSeq < cutoffSeq && n.inflight == nil
		n.mu.Unlock()
		if parents == 0 && stale && n.cached.Load() == nil {
			out = append(out, n)
		}
		//recycledb:nondet-ok — visit order erased by the ID sort below
		for _, p := range n.parents {
			for _, pp := range p {
				walk(pp)
			}
		}
	}
	//recycledb:nondet-ok — visit order erased by the ID sort below
	for _, leaves := range g.leaves {
		for _, l := range leaves {
			walk(l)
		}
	}
	// The walk reaches every removable node regardless of map order; sort
	// by insertion ID so eviction processes victims deterministically.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// removeNodeLocked unlinks n from its children's parent indexes, the leaf table,
// and subsumption edges (write lock held).
func (g *Graph) removeNodeLocked(n *Node) {
	for _, c := range n.Children {
		ps := c.parents[n.HashKey]
		for i, p := range ps {
			if p == n {
				c.parents[n.HashKey] = append(ps[:i], ps[i+1:]...)
				break
			}
		}
	}
	if len(n.Children) == 0 {
		ls := g.leaves[n.HashKey]
		for i, l := range ls {
			if l == n {
				g.leaves[n.HashKey] = append(ls[:i], ls[i+1:]...)
				break
			}
		}
	}
	for _, s := range n.subsumers {
		s.subsumees = removeFrom(s.subsumees, n)
	}
	for _, s := range n.subsumees {
		s.subsumers = removeFrom(s.subsumers, n)
	}
	g.nodes--
}

func removeFrom(ns []*Node, x *Node) []*Node {
	for i, n := range ns {
		if n == x {
			return append(ns[:i], ns[i+1:]...)
		}
	}
	return ns
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
	return fmt.Sprintf("#%d %s[%s] out(%s)", n.ID, n.Op, n.Params, strings.Join(n.OutCols, ","))
}
