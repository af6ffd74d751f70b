package core

import (
	"time"

	"recycledb/internal/plan"
)

// This file is the recycler's read-only interface for the cost-based
// optimizer (internal/opt): the optimizer enumerates alternative plan
// shapes and, before costing each one, asks the recycler whether the
// shape's subtrees already exist in the graph, carry measured statistics,
// have a cached result valid under the statement's snapshot, or are being
// materialized right now by a concurrent query. Everything here is strictly
// non-mutating — probing an alternative must not insert graph nodes, bump
// reuse counters, or touch importance factors, or enumeration itself would
// perturb the statistics it reads (and two enumerations of the same query
// could yield different plans, breaking memo determinism).

// MatchOnly runs the bottom-up matching pass of MatchInsert without the
// insertion half: it returns the graph node an exact match of root unifies
// with, or nil when any node of the subtree is absent from the graph. The
// tree must be resolved (name mappings are built from output schemas).
func (g *Graph) MatchOnly(root *plan.Node) *NodeMatch {
	childMatches := make([]*NodeMatch, len(root.Children))
	for i, c := range root.Children {
		cm := g.MatchOnly(c)
		if cm == nil {
			return nil
		}
		childMatches[i] = cm
	}
	rename := renameFunc(childMatches)
	hk := root.HashKey()
	sig := root.Signature(rename)
	params := root.ParamString(rename)
	g.mu.RLock()
	cand := g.findExactLocked(root, hk, sig, params, childMatches)
	g.mu.RUnlock()
	if cand == nil {
		return nil
	}
	return &NodeMatch{G: cand, Existed: true, OutMap: outMap(root, cand)}
}

// ProbeInfo describes what the recycler knows about one plan shape.
type ProbeInfo struct {
	// Node is the matched graph node.
	Node *Node
	// CostKnown reports whether the node has measured statistics; BaseCost
	// and Card are the measurements (Eq. 2 base cost, output cardinality).
	CostKnown bool
	BaseCost  time.Duration
	Card      int64
	// Cached reports a cached result that passed the caller's validation;
	// CachedRows/CachedBytes are its exact measurements.
	Cached      bool
	CachedRows  int64
	CachedBytes int64
	// Inflight reports a concurrent query materializing this result now.
	Inflight bool
}

// Probe matches p against the recycler graph without inserting or counting
// anything and reports the node's statistics, cached-result state, and
// in-flight state. validate vets a candidate cached entry (snapshot-tag
// checks); nil accepts any entry. The second result is false when the shape
// has never been seen. The peeked entry is pinned only for the duration of
// the inspection — by the time Probe returns, a concurrent eviction may
// have removed it, so Cached is advisory: the rewriter re-validates at
// substitution time and recomputes on a miss (results never depend on it).
func (r *Recycler) Probe(p *plan.Node, validate func(*Entry) bool) (ProbeInfo, bool) {
	nm := r.graph.MatchOnly(p)
	if nm == nil {
		return ProbeInfo{}, false
	}
	info := ProbeInfo{Node: nm.G}
	info.BaseCost, info.CostKnown, info.Card, _ = r.NodeStats(nm.G)
	if e := r.peekCached(nm.G); e != nil {
		if validate == nil || validate(e) {
			info.Cached = true
			info.CachedRows = e.Rows
			info.CachedBytes = e.Size
		}
		r.Release(e)
	}
	if !info.Cached {
		info.Inflight = r.Inflight(nm.G)
	}
	return info, true
}

// peekCached returns the node's cache entry, pinned, without counting a
// reuse. Cached is the counting variant the rewriter's substitution rule
// uses; the optimizer may probe the same entry many times while costing
// alternatives and must not inflate the reuse statistics doing so.
func (r *Recycler) peekCached(n *Node) *Entry {
	if n.cached.Load() == nil {
		return nil // lock-free miss
	}
	r.cache.mu.Lock()
	e := n.cached.Load()
	if e != nil {
		e.pins++
	}
	r.cache.mu.Unlock()
	return e
}

// EntrySnapValid reports whether a cached entry's snapshot tag matches a
// statement's captured data epochs, and — when it does not — whether the
// entry is stale (tagged older than the epoch the catalog has moved to).
// Untagged entries are version-agnostic; tags over tables outside the
// statement's capture fall back to the live version via live (which reports
// false for unknown tables, treated as stale). Both the rewriter's
// substitution rule and the optimizer's cached-access-path costing validate
// through this one predicate, so they can never disagree about what "warm"
// means.
func EntrySnapValid(e *Entry, snapVers map[string]TableSnap, globalVer int64,
	live func(table string) (int64, bool)) (valid, stale bool) {
	if e.Snap == nil {
		return true, false
	}
	valid = true
	//recycledb:nondet-ok — commutative ∀-fold over the snapshot tags
	for t, ts := range e.Snap {
		if t == plan.LineageAll {
			if snapVers != nil && ts.Ver != globalVer {
				valid = false
				if ts.Ver < globalVer {
					stale = true
				}
			}
			continue
		}
		if v, ok := snapVers[t]; ok {
			if v.Ver != ts.Ver {
				valid = false
				if ts.Ver < v.Ver {
					stale = true
				}
			}
			continue
		}
		lv, ok := live(t)
		if !ok {
			return false, true
		}
		if lv != ts.Ver {
			valid = false
			if ts.Ver < lv {
				stale = true
			}
		}
	}
	return valid, stale
}
