package core

import "recycledb/internal/plan"

// This file is the recycler's read-only interface for the cost-based
// optimizer (internal/opt): before costing an alternative plan shape, the
// optimizer asks whether the shape is in the graph (Match) and, if so,
// whether its node carries measured statistics, has a cached result valid
// under the statement's snapshot, or is being materialized right now by a
// concurrent query (Probe). Everything here is strictly non-mutating —
// probing an alternative must not insert graph nodes, bump reuse counters,
// or touch importance factors, or enumeration itself would perturb the
// statistics it reads (and two enumerations of the same query could yield
// different plans, breaking memo determinism).

// Match is one step of MatchInsert's matching pass without the insertion
// half: over the matches of n's children (none for a leaf) it returns the
// graph node n unifies with, or nil. The optimizer matches candidates
// bottom-up this way, reusing each subtree's match. n must be resolved.
func (g *Graph) Match(n *plan.Node, childMatches []*NodeMatch) *NodeMatch {
	rename := renameFunc(childMatches)
	hk := n.HashKey()
	sig := n.Signature(rename)
	params := n.ParamString(rename)
	g.mu.RLock()
	cand := g.findExactLocked(n, hk, sig, params, childMatches)
	g.mu.RUnlock()
	if cand == nil {
		return nil
	}
	return &NodeMatch{G: cand, Existed: true, OutMap: outMap(n, cand)}
}

// ProbeInfo describes what the recycler knows about one graph node.
type ProbeInfo struct {
	// CostKnown reports whether the node has measured statistics; BaseCost
	// and Card are the measurements (Eq. 2 base cost, output cardinality).
	CostKnown bool
	BaseCost  plan.Work
	Card      int64
	// Cached reports a cached result that passed the caller's validation;
	// CachedRows/CachedBytes are its exact measurements.
	Cached      bool
	CachedRows  int64
	CachedBytes int64
	// Inflight reports a concurrent query materializing this result now.
	Inflight bool
}

// Probe reports the statistics, cached-result state and in-flight state of
// an already-matched graph node without counting anything. validate vets a
// candidate cached entry (snapshot-tag checks); nil accepts any entry. The
// peeked entry is pinned only for the duration of the inspection — by the
// time Probe returns, a concurrent eviction may have removed it, so Cached
// is advisory: the rewriter re-validates at substitution time and
// recomputes on a miss (results never depend on it).
func (r *Recycler) Probe(n *Node, validate func(*Entry) bool) ProbeInfo {
	var info ProbeInfo
	info.BaseCost, info.CostKnown, info.Card, _ = r.NodeStats(n)
	if e := r.peekCached(n); e != nil {
		if validate == nil || validate(e) {
			info.Cached = true
			info.CachedRows = e.Rows
			info.CachedBytes = e.Size
		}
		r.Release(e)
	}
	if !info.Cached {
		info.Inflight = r.Inflight(n)
	}
	return info
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
