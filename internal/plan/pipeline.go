package plan

// Fragment analysis: how a Select/Project/Join/Aggregate subtree splits into
// a row-local interior and the source that feeds it. The interior is a chain
// of select and project nodes extended through the probe side of hash joins
// — the shape "Push vs. Pull-Based Loop Fusion in Query Engines" identifies
// as the fusable unit, and the unit the executor compiles into one push loop.
// Join build sides are not part of it: they are separate subplans
// materialized once.
//
// The executor supplies a barrier predicate for nodes that must stay pull
// operators — in this engine, nodes carrying recycler decorations (reuse
// replays, in-flight waits, store materialization points), so cached results
// are always produced and consumed on a merged stream, never inside a
// worker. A barrier does not dissolve the fragment: it becomes its source.

// SpineNodes enumerates the fragment rooted at n leaf-first. spine[0] is the
// source: the first node down the select/project/join-probe path that is not
// such a node or that barrier marks. spine[1:] are the interior nodes above
// it, up to and including n — or up to n's child when n is an Aggregate,
// whose input is the spine and which is itself the fragment's sink. n is
// exempt from barrier (whatever decorates it wraps the fragment's output);
// an Aggregate's child is not.
func SpineNodes(n *Node, barrier func(*Node) bool) []*Node {
	cur, exempt := n, true
	if n.Op == Aggregate {
		cur, exempt = n.Children[0], false
	}
	var spine []*Node
	for {
		spine = append(spine, cur)
		interior := cur.Op == Select || cur.Op == Project || cur.Op == Join
		if !interior || (!exempt && barrier != nil && barrier(cur)) {
			break
		}
		// A join's probe side continues the spine; its build side is a
		// separate subplan and may be anything.
		cur, exempt = cur.Children[0], false
	}
	for i, j := 0, len(spine)-1; i < j; i, j = i+1, j-1 {
		spine[i], spine[j] = spine[j], spine[i]
	}
	return spine
}
