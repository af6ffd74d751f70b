// Package rewrite implements the paper's rewriter rules (Fig. 1):
//
//  1. a bottom-up rule matches the optimized query tree against the recycler
//     graph, inserting unmatched nodes (delegated to core.MatchInsert);
//  2. a top-down rule substitutes cached results (exact matches first, then
//     subsumption derivations, §IV-A) and plans stalls on results being
//     materialized by concurrent queries;
//  3. a final rule injects store operators: pre-decided for results seen
//     before whose benefit warrants materialization (history mode), and
//     speculative stores over expensive-looking, small-looking new results
//     (final result, aggregations, top-N; §III-D);
//
// plus the proactive rules of §IV-B (see proactive.go).
package rewrite

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/exec"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Mode selects the recycler's execution mode (§V).
type Mode int

// Execution modes, in increasing capability order.
const (
	// Off disables recycling entirely (the naive baseline).
	Off Mode = iota
	// History materializes only results seen before (no buffering).
	History
	// Speculative adds run-time speculation on new results.
	Speculative
	// Proactive adds the proactive query rewrites (top-N widening, cube
	// caching with selections and with binning).
	Proactive
)

// String returns the mode name as used in the paper's figures.
func (m Mode) String() string {
	return [...]string{"OFF", "HIST", "SPEC", "PA"}[m]
}

// Rewriter applies the recycling rules for one engine.
type Rewriter struct {
	Rec  *core.Recycler
	Cat  *catalog.Catalog
	Mode Mode

	// SnapVers holds the statement's captured per-table data epochs (the
	// epochs its scans will read). Cached results are substituted only if
	// their snapshot tag matches — stale entries are dropped, fresher
	// entries (extended mid-statement) are recomputed instead of mixing
	// epochs. nil disables validation (plans built outside the engine).
	SnapVers map[string]core.TableSnap
	// GlobalVer is the catalog-wide data version captured with SnapVers;
	// entries over unknown-lineage table functions are tagged with it.
	GlobalVer int64
}

// The values used in the evaluation.
const (
	// maxHistoryStores caps pre-decided stores per query.
	maxHistoryStores = 4
	// minHistoryHR is the minimum (aged) importance factor for a
	// history-mode store decision; results must have been seen before.
	minHistoryHR = 0.5
	// proactiveDistinctLimit is the GROUP BY extension threshold of the
	// cube-caching heuristic.
	proactiveDistinctLimit = 64
)

// NewRewriter returns a rewriter for one statement.
func NewRewriter(rec *core.Recycler, cat *catalog.Catalog, mode Mode) *Rewriter {
	return &Rewriter{Rec: rec, Cat: cat, Mode: mode}
}

// Result carries everything the engine needs to execute and then annotate a
// rewritten query.
type Result struct {
	// Exec is the tree to execute: the original tree, possibly with
	// subsumption-derived or proactive replacements.
	Exec  *plan.Node
	Decor exec.Decorations
	Match *core.MatchResult
	// Stats is for exec.Build to fill with what execution counts per node;
	// the recycler prices results from it (see price). nil in Off mode.
	Stats map[*plan.Node]exec.NodeStats

	// subst maps a decorated node to the graph node whose cached result
	// replaced that subtree (bcost accounting for Eq. 2 consistency).
	subst map[*plan.Node]*core.Node
	// waitReused records the runtime outcome of Wait decorations. The
	// outcomes are written from OnOutcome callbacks, which with parallel
	// pipelines may fire on a fragment worker goroutine (a wait inside a
	// join build side), so they are atomics: every counter or flag a
	// store/wait callback touches must be safe to update off the query's
	// own goroutine.
	waitReused map[*plan.Node]*atomic.Bool
	// producing is the set of graph nodes this query registered as the
	// in-flight producer of. A second occurrence of the same subtree in
	// the same query (intra-query sharing, e.g. TPC-H Q15) must not
	// stall on it: within one pipeline that wait can deadlock against
	// its own store.
	producing map[*core.Node]bool

	// Record is the statement's record. Rewrite writes the planned
	// decisions into it and the stores it injects count Materialized; the
	// engine hands it to the executor through exec.Ctx.Record.
	Record exec.StmtRecord
}

// Rewrite runs the full pipeline on a resolved query tree and returns the
// execution decorations. In Off mode it returns the tree untouched.
//
// known, when not nil, is the graph node an earlier Rewrite of the same plan
// matched its root to (Result.RootMatch), and root is then shared: Rewrite
// does not mutate it. In History and Speculative mode, when known holds a
// result valid under the statement's epoch, the statement replays it: the
// Result is one Reuse decoration over root, counted as the full pipeline
// would count it (core.Recycler.ReuseRoot), without matching, cloning or
// walking the plan. Otherwise Rewrite runs the full pipeline on a clone of
// root.
func (rw *Rewriter) Rewrite(root *plan.Node, known *core.Node) (*Result, error) {
	if known != nil {
		if res := rw.ReuseRoot(root, known); res != nil {
			return res, nil
		}
		root = root.Clone()
	}
	res := &Result{
		Exec:       root,
		Decor:      make(exec.Decorations),
		subst:      make(map[*plan.Node]*core.Node),
		waitReused: make(map[*plan.Node]*atomic.Bool),
		producing:  make(map[*core.Node]bool),
	}
	if rw.Mode == Off {
		return res, nil
	}
	res.Stats = make(map[*plan.Node]exec.NodeStats)
	rw.Rec.BeginQuery()
	if rw.Mode >= Proactive {
		if pa, err := rw.applyProactive(root); err != nil {
			return nil, err
		} else if pa != nil {
			res.Exec = pa
			res.Record.ProactiveApplied = true
		}
	}
	res.Match = rw.Rec.MatchInsert(res.Exec)
	rw.Rec.AddRefs(res.Exec, res.Match)
	rw.substitute(res.Exec, res)
	rw.injectStores(res.Exec, res)
	rw.dropStoresUnderWaits(res.Exec, res, false)
	return res, nil
}

// ReuseRoot is Rewrite's root hit: the Result that replays root's cached
// result as graph node g, or nil when g holds no result valid under the
// statement's epoch or the mode does not substitute the plan as written
// (Off never reuses; Proactive may rewrite the plan before matching it).
// It reads only the epoch's version tags (SnapVers, GlobalVer), and a nil
// answer counted nothing, so an engine may probe at tags alone and run
// Rewrite at a full epoch when the probe declines.
func (rw *Rewriter) ReuseRoot(root *plan.Node, g *core.Node) *Result {
	if rw.Mode != History && rw.Mode != Speculative {
		return nil
	}
	e, m := rw.Rec.ReuseRoot(root, g, func(e *core.Entry) bool {
		valid, _ := rw.entryValid(e)
		return valid
	})
	if e == nil {
		return nil
	}
	return &Result{
		Exec:   root,
		Decor:  exec.Decorations{root: {Reuse: rw.reuseSpec(e, identityIdx(len(g.OutCols)))}},
		Match:  m,
		Record: exec.StmtRecord{Reused: 1},
	}
}

// RootMatch returns the graph node the plan Rewrite was given matched its
// root to, for a later Rewrite of the same plan to pass as known. It is nil
// when nothing was matched (Off mode, or a root hit, which knew it already)
// or a proactive rewrite replaced the plan before matching.
func (res *Result) RootMatch() *core.Node {
	if res.Match == nil || res.Record.ProactiveApplied {
		return nil
	}
	if nm := res.Match.ByNode[res.Exec]; nm != nil {
		return nm.G
	}
	return nil
}

// dropStoresUnderWaits removes store decorations that ended up inside a wait
// fallback (a wait planned for an ancestor after the store was attached):
// if the wait succeeds the fallback never runs, so such a store would leave
// its in-flight registration dangling and force concurrent queries into the
// stall timeout.
func (rw *Rewriter) dropStoresUnderWaits(n *plan.Node, res *Result, underWait bool) {
	d := res.Decor[n]
	if d != nil {
		if underWait && d.Store != nil {
			if g := nodeGraph(res, n); g != nil {
				rw.Rec.FinishInflight(g)
			}
			if d.Store.Speculative {
				res.Record.SpecStores--
			} else {
				res.Record.Stores--
			}
			delete(res.Decor, n)
		}
		if d.Reuse != nil {
			return
		}
		if d.Wait != nil {
			underWait = true
		}
	}
	for _, c := range n.Children {
		rw.dropStoresUnderWaits(c, res, underWait)
	}
}

// entryValid reports whether a cached entry's snapshot tag matches the
// statement's captured data epochs, and — when it does not — whether the
// entry is stale (tagged older than the epoch the catalog has moved to).
// Untagged entries are version-agnostic; tags over tables outside the
// statement's capture (subsumption across differently-shaped plans) fall
// back to the live table version. The predicate itself is shared with the
// optimizer's cached-access-path probing (core.EntrySnapValid), so the
// rewriter substitutes exactly the entries the optimizer steered toward.
func (rw *Rewriter) entryValid(e *core.Entry) (valid, stale bool) {
	return core.EntrySnapValid(e, rw.SnapVers, rw.GlobalVer, func(t string) (int64, bool) {
		tbl, err := rw.Cat.Table(t)
		if err != nil {
			return 0, false
		}
		return tbl.DataVersion(), true
	})
}

// cachedValid is Cached plus snapshot validation; like Cached it counts
// nothing. Entries tagged older than the statement's epoch are dropped from
// the cache (lazy invalidation of results admitted after the commit walk)
// and reported as a miss.
// Entries tagged *newer* — a concurrent commit delta-extended them after
// this statement captured its snapshot — are left cached for the queries
// already at the new epoch; this statement just recomputes from its own
// snapshot.
func (rw *Rewriter) cachedValid(g *core.Node) *core.Entry {
	e := rw.Rec.Cached(g)
	if e == nil {
		return nil
	}
	valid, stale := rw.entryValid(e)
	if valid {
		return e
	}
	rw.Rec.Release(e)
	if stale {
		rw.Rec.EvictEntry(g, e)
	}
	return nil
}

// substitute is the top-down reuse rule.
func (rw *Rewriter) substitute(n *plan.Node, res *Result) {
	nm := res.Match.ByNode[n]
	if nm != nil {
		// Exact cached result.
		if e := rw.cachedValid(nm.G); e != nil {
			res.Decor[n] = &exec.Decor{Reuse: rw.reuseSpec(e, identityIdx(len(nm.G.OutCols)))}
			res.subst[n] = nm.G
			res.Record.Reused++
			rw.Rec.CountReuse()
			return
		}
		// In-flight materialization by a concurrent query: stall.
		if nm.Existed && rw.Rec.Inflight(nm.G) {
			rw.planWait(n, nm.G, res)
			// The fallback subtree may still reuse deeper results.
			for _, c := range n.Children {
				rw.substitute(c, res)
			}
			return
		}
		// Subsumption: a cached result that subsumes this node (§IV-A).
		// This applies in particular to nodes with no exact match in
		// the graph (freshly inserted), exactly the case the paper
		// motivates subsumption with.
		for _, s := range rw.Rec.Subsumers(nm.G) {
			if e := rw.cachedValid(s); e != nil {
				if rw.applySubsumption(n, nm, s, e, res) {
					res.Record.SubsumptionReused++
					rw.Rec.CountSubsumptionReuse()
					return
				}
				rw.Rec.Release(e)
			}
		}
	}
	for _, c := range n.Children {
		rw.substitute(c, res)
	}
}

// reuseSpec wraps a pinned cache entry for the executor.
func (rw *Rewriter) reuseSpec(e *core.Entry, outIdx []int) *exec.ReuseSpec {
	return &exec.ReuseSpec{
		Batches: e.Batches,
		OutIdx:  outIdx,
		Release: func() { rw.Rec.Release(e) },
	}
}

func identityIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// injectStores is the final rewriting rule: store operators over results
// worth materializing.
func (rw *Rewriter) injectStores(root *plan.Node, res *Result) {
	type candidate struct {
		n       *plan.Node
		g       *core.Node
		benefit float64
		size    int64
	}
	var hist []candidate
	var spec []*struct {
		n *plan.Node
		g *core.Node
	}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		d := res.Decor[n]
		if d != nil && d.Reuse != nil {
			return // replayed subtrees compute nothing to store
		}
		if d != nil && d.Wait != nil {
			// Stores inside a wait fallback would register in-flight
			// producers that never run if the wait succeeds, leaving
			// concurrent queries to stall until the timeout; skip the
			// whole fallback.
			return
		}
		nm := res.Match.ByNode[n]
		if nm != nil && rw.storable(n) {
			g := nm.G
			_, known, card, estBytes := rw.Rec.NodeStats(g)
			if nm.Existed && known {
				hr := rw.Rec.HR(g)
				if hr >= minHistoryHR {
					size := estBytes
					if size <= 0 {
						size = core.EstimateResultBytes(g, card)
					}
					// Expected savings must beat the one-time
					// materialization cost. A reference saves the true
					// cost less the work of replaying the result, priced
					// as the optimizer prices a cached access path: a
					// wide, barely filtered selection saves next to
					// nothing over rescanning.
					if size > 0 {
						saved := plan.Work(hr * float64(rw.Rec.TrueCost(g)-plan.ReplayWork(card, size)))
						if saved > core.CopyCost(size) {
							b := rw.Rec.Benefit(g)
							hist = append(hist, candidate{n: n, g: g, benefit: b, size: size})
						}
					}
				}
			} else if rw.Mode >= Speculative && rw.speculative(n, root) {
				spec = append(spec, &struct {
					n *plan.Node
					g *core.Node
				}{n, g})
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)

	// History stores: highest benefit first, capped, admission-checked.
	// Registration runs in ascending graph-node-ID order: a deterministic
	// global order makes crossed in-flight ownership between concurrent
	// queries (the stall-deadlock precondition) much rarer.
	sort.SliceStable(hist, func(a, b int) bool { return hist[a].benefit > hist[b].benefit })
	var selected []candidate
	for _, c := range hist {
		if len(selected) >= maxHistoryStores {
			break
		}
		if !rw.Rec.WouldAdmit(c.benefit, c.size) {
			continue
		}
		selected = append(selected, c)
	}
	sort.SliceStable(selected, func(a, b int) bool { return selected[a].g.ID < selected[b].g.ID })
	for _, c := range selected {
		if !rw.Rec.BeginInflight(c.g) {
			// Stall — unless this query itself is the producer (an
			// intra-query duplicate subtree): waiting on ourselves
			// would deadlock, so the duplicate just recomputes.
			if !res.producing[c.g] {
				rw.planWait(c.n, c.g, res)
			}
			continue
		}
		rw.attachStore(c.n, c.g, res, false)
		res.producing[c.g] = true
	}
	// Speculative stores on new expensive-looking results.
	for _, s := range spec {
		if d := res.Decor[s.n]; d != nil {
			continue // already decided above
		}
		if !rw.Rec.BeginInflight(s.g) {
			if !res.producing[s.g] {
				rw.planWait(s.n, s.g, res)
			}
			continue
		}
		rw.attachStore(s.n, s.g, res, true)
		res.producing[s.g] = true
	}
}

// storable excludes operators whose materialization can never pay off.
func (rw *Rewriter) storable(n *plan.Node) bool {
	switch n.Op {
	case plan.Scan, plan.Cached:
		// Replaying a base-table scan costs as much as the scan.
		return false
	}
	return true
}

// speculative reports whether a never-seen node warrants a speculative
// store: the final result of the query, aggregations and top-Ns — operators
// expected to be computationally expensive with small results (§III-D).
func (rw *Rewriter) speculative(n, root *plan.Node) bool {
	if n == root {
		return true
	}
	switch n.Op {
	case plan.Aggregate, plan.TopN:
		return true
	}
	return false
}

// planWait decorates node n to stall on g's in-flight materialization.
func (rw *Rewriter) planWait(n *plan.Node, g *core.Node, res *Result) {
	if d := res.Decor[n]; d != nil {
		return
	}
	reused := new(atomic.Bool)
	res.waitReused[n] = reused
	res.subst[n] = g
	res.Decor[n] = &exec.Decor{Wait: &exec.WaitSpec{
		Timeout: rw.Rec.StallTimeoutFor(g),
		Wait: func(ctx context.Context, timeout time.Duration) ([]*vector.Batch, []int, func(), bool) {
			e, ok := rw.Rec.WaitInflightCtx(ctx, g, timeout)
			if !ok {
				return nil, nil, nil, false
			}
			if ok, _ := rw.entryValid(e); !ok {
				rw.Rec.Release(e)
				return nil, nil, nil, false
			}
			return e.Batches, identityIdx(len(g.OutCols)),
				func() { rw.Rec.Release(e) }, true
		},
		OnOutcome: func(ok bool) {
			reused.Store(ok)
			rw.Rec.CountStall(ok)
		},
	}}
	res.Record.Waits++
}

// entrySnap builds the snapshot tag for a result of graph node g from the
// statement's captured epochs: one TableSnap per lineage table, the global
// data version for unknown lineage. nil when the engine captured nothing.
func (rw *Rewriter) entrySnap(g *core.Node) map[string]core.TableSnap {
	if rw.SnapVers == nil {
		return nil
	}
	snap := make(map[string]core.TableSnap, len(g.Tables))
	for _, t := range g.Tables {
		if t == plan.LineageAll {
			snap[plan.LineageAll] = core.TableSnap{Ver: rw.GlobalVer}
			continue
		}
		if v, ok := rw.SnapVers[t]; ok {
			snap[t] = v
			continue
		}
		// Not pre-captured (shouldn't happen for resolved plans); tag
		// with the live version so validation stays sound.
		if tbl, err := rw.Cat.Table(t); err == nil {
			snap[t] = core.TableSnap{Ver: tbl.DataVersion(), Rows: int64(tbl.Snapshot().Rows)}
		}
	}
	return snap
}

// appendExtendable reports whether subtree n qualifies for append delta
// extension: a row-local chain (scan/select/project) over exactly one base
// table, so running it over just the appended rows yields exactly the
// cached result's delta.
func appendExtendable(n *plan.Node) bool {
	lin := n.Lineage()
	if len(lin) != 1 || lin[0] == plan.LineageAll {
		return false
	}
	ok := true
	n.Walk(func(x *plan.Node) {
		switch x.Op {
		case plan.Scan, plan.Select, plan.Project:
		default:
			ok = false
		}
	})
	return ok
}

// attachStore decorates node n with a store operator for graph node g.
func (rw *Rewriter) attachStore(n *plan.Node, g *core.Node, res *Result, speculativeStore bool) {
	cfg := rw.Rec.Config()
	snap := rw.entrySnap(g)
	extendable := snap != nil && appendExtendable(n)
	var subplan *plan.Node
	if extendable {
		subplan = n.Clone()
	}
	specSpec := exec.StoreSpec{
		Speculative: speculativeStore,
		OnComplete: func(batches []*vector.Batch, rows, bytes int64) {
			cost, _ := rw.price(res, n, nil)
			hrOverride := -1.0
			if speculativeStore {
				hrOverride = core.SpeculationHR
			}
			ok := rw.Rec.AdmitMat(g, core.Materialization{
				Batches: batches, Rows: rows, Size: bytes, Cost: cost,
				HROverride: hrOverride,
				Snap:       snap, Plan: subplan, Extendable: extendable,
			})
			if ok {
				res.Record.Materialized.Add(1)
				if speculativeStore {
					rw.Rec.CountSpecCommit()
				}
			}
			// Hand the batches to concurrent waiters directly, whether
			// or not admission kept them: their demand is already here.
			rw.Rec.FinishInflightShared(g, batches, rows, bytes, snap)
		},
		OnCancel: func() {
			if speculativeStore {
				rw.Rec.CountSpecCancel()
			}
			rw.Rec.FinishInflight(g)
		},
	}
	if speculativeStore {
		specSpec.OnBatch = func(progress float64, buffered int64) bool {
			if cfg.MaxSpeculateBytes > 0 && buffered > cfg.MaxSpeculateBytes {
				return false
			}
			if progress < core.MinProgress {
				return true // not enough information yet; keep buffering
			}
			cost, _ := rw.price(res, n, nil)
			estCost := plan.Work(float64(cost) / progress)
			estSize := int64(float64(buffered) / progress)
			// "Computationally expensive and likely small" (§III-D),
			// quantified: the result must cost more to recompute than
			// to materialize, or speculation is a net loss.
			if estCost < core.CopyCost(estSize) {
				return false
			}
			b := core.BenefitValue(estCost, core.SpeculationHR, estSize)
			return rw.Rec.WouldAdmit(b, estSize)
		}
		res.Record.SpecStores++
	} else {
		res.Record.Stores++
	}
	res.Decor[n] = &exec.Decor{Store: &specSpec}
}

// price is the one pricing walk: it prices the executed subtree at n in the
// cost model's weights over the rows execution counted (res.Stats). work is
// what this execution did — every node that ran at its own weights
// (plan.Node.SelfWork) over the rows it emitted and its children emitted,
// and a replayed node (a reuse, or a wait whose stall reused) at the work of
// streaming its rows out (plan.ReplayWork). subst is the stored base cost of
// the replayed results, which the subtree's base cost includes (Eq. 2) but
// this execution did not redo. visit, if set, sees each node that ran, with
// its subtree's work and subst and its rows.
//
// A node's rows are one count: what its operator handed up, or for a node
// fused into a fragment's interior, the rows of the morsels the fragment
// finished. A fragment root therefore counts the rows it handed up, even
// mid-morsel or when a LIMIT above it stops early.
//
// Execution writes the counts the walk reads, so callers read them only
// where the counting is settled for the subtree: a store's callbacks, after
// the subtree has handed up a batch (a join's build side is then complete,
// published by the build's sync.Once and the hand-off of the batch), and
// Annotate, after Close. The walk allocates nothing (no node has more than
// two children), so a speculative store may run it at every batch.
func (rw *Rewriter) price(res *Result, n *plan.Node, visit func(n *plan.Node, work, subst plan.Work, rows int64)) (work, subst plan.Work) {
	rows := res.rows(n)
	if d := res.Decor[n]; d != nil && (d.Reuse != nil || d.Wait != nil && res.waitReused[n].Load()) {
		if g := res.subst[n]; g != nil {
			subst, _, _, _ = rw.Rec.NodeStats(g)
		}
		return plan.ReplayWork(rows, 0), subst
	}
	var in [2]int64
	for i, c := range n.Children {
		w, s := rw.price(res, c, visit)
		work, subst = work+w, subst+s
		in[i] = res.rows(c)
	}
	work += n.SelfWork(rows, in[:len(n.Children)]...)
	if visit != nil {
		visit(n, work, subst, rows)
	}
	return work, subst
}

// rows is the number of rows node n emitted so far (0 if it was not built).
func (res *Result) rows(n *plan.Node) int64 {
	if s := res.Stats[n]; s != nil {
		return s.RowsOut()
	}
	return 0
}

// Annotate writes what execution measured back to the recycler graph once
// the query has run: each node's base cost is its subtree's price — the work
// this execution did plus the stored base costs of the results it replayed,
// keeping Eq. 2 consistent (§III-C), so a node's base cost is the same
// whether its subtree was recomputed or partly replayed — and its
// cardinality the rows it emitted.
func (rw *Rewriter) Annotate(res *Result) {
	if res.Match == nil {
		return
	}
	rw.price(res, res.Exec, func(n *plan.Node, work, subst plan.Work, rows int64) {
		if nm := res.Match.ByNode[n]; nm != nil && res.Stats[n] != nil {
			rw.Rec.UpdateStats(nm.G, work+subst, rows, core.EstimateResultBytes(nm.G, rows))
		}
	})
}

// Abort releases any in-flight registrations this rewrite created, for error
// paths where the operators never ran (build failures).
func (rw *Rewriter) Abort(res *Result) {
	//recycledb:nondet-ok — per-node FinishInflight is independent and idempotent
	for n, d := range res.Decor {
		if d.Store != nil {
			if g := nodeGraph(res, n); g != nil {
				rw.Rec.FinishInflight(g)
			}
		}
	}
}

func nodeGraph(res *Result, n *plan.Node) *core.Node {
	if res.Match == nil {
		return nil
	}
	if nm := res.Match.ByNode[n]; nm != nil {
		return nm.G
	}
	return nil
}
