// Package monet implements the comparison system of the paper's Fig. 6: an
// operator-at-a-time engine in the MonetDB mold, where every operator fully
// materializes its result before the parent runs, plus a recycler in the
// style of Ivanova et al. (SIGMOD 2009): since materialization is a free
// by-product of the execution paradigm, every intermediate is admitted to
// the cache, matching happens directly on cached results (one entry per
// operator instance, keyed by its full subtree's opt.ShapeKey), and
// eviction is benefit-ordered. Consequently it must keep all intermediates on the path
// to a result — the property that separates the two systems under a limited
// cache budget (§V).
package monet

import (
	"sort"
	"sync"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/opt"
	"recycledb/internal/plan"
)

// Engine evaluates plans operator-at-a-time over a catalog, optionally with
// a Recycler attached.
type Engine struct {
	Cat *catalog.Catalog
	Rec *Recycler
}

// New returns an engine; rec may be nil (the naive baseline). Engines with
// a recycler attach invalidate-all-on-write semantics to the catalog: any
// committed write epoch, on any table, flushes the whole cache — the
// Ivanova-style recycler has no lineage, so this coarse protocol (the
// paper's Fig. 6 "update invalidation") is the best it can do. Contrast
// the pipelined recycler's lineage-based walk with append delta extension.
func New(cat *catalog.Catalog, rec *Recycler) *Engine {
	if rec != nil {
		cat.OnCommit(func(*catalog.Table, catalog.CommitInfo) { rec.Flush() })
	}
	return &Engine{Cat: cat, Rec: rec}
}

// Execute evaluates the plan bottom-up, materializing every intermediate.
func (e *Engine) Execute(p *plan.Node) (*catalog.Result, error) {
	q := p.Clone()
	if err := q.Resolve(e.Cat); err != nil {
		return nil, err
	}
	res, _, err := e.eval(q)
	return res, err
}

// eval returns the node's materialized result and its subtree key.
func (e *Engine) eval(n *plan.Node) (*catalog.Result, string, error) {
	key := opt.ShapeKey(n)
	if e.Rec != nil {
		if r, ok := e.Rec.lookup(key); ok {
			return r, key, nil
		}
	}
	start := time.Now()
	childResults := make([]*catalog.Result, len(n.Children))
	for i, c := range n.Children {
		cr, _, err := e.eval(c)
		if err != nil {
			return nil, key, err
		}
		childResults[i] = cr
	}
	res, err := e.evalOne(n, childResults)
	if err != nil {
		return nil, key, err
	}
	// Inclusive cost: what recomputing this subtree would take given the
	// current cache contents (the benefit metric's cost input).
	cost := time.Since(start)
	if e.Rec != nil {
		e.Rec.admit(key, res, cost)
	}
	return res, key, nil
}

// evalOne runs a single operator over fully materialized inputs.
func (e *Engine) evalOne(n *plan.Node, inputs []*catalog.Result) (*catalog.Result, error) {
	shallow := n.Clone()
	dec := make(exec.Decorations, len(inputs))
	leaves := make([]*plan.Node, len(inputs))
	for i, in := range inputs {
		// The leaf replays the child's materialized batches under the
		// child plan's own output names.
		leaf := plan.NewCached(n.Children[i].Schema())
		idx := make([]int, len(in.Schema))
		for j := range idx {
			idx[j] = j
		}
		dec[leaf] = &exec.Decor{Reuse: &exec.ReuseSpec{Batches: in.Batches, OutIdx: idx}}
		leaves[i] = leaf
	}
	shallow.Children = leaves
	if err := shallow.Resolve(e.Cat); err != nil {
		return nil, err
	}
	ctx := exec.NewCtx(e.Cat)
	op, err := exec.Build(ctx, shallow, dec, nil)
	if err != nil {
		return nil, err
	}
	return exec.Run(ctx, op)
}

// entry is one cached intermediate.
type entry struct {
	key  string
	res  *catalog.Result
	size int64
	cost time.Duration
	refs int64
}

// Recycler is the admit-all, benefit-evicting cache.
type Recycler struct {
	mu       sync.Mutex
	capacity int64 // bytes; <= 0 unlimited
	used     int64
	entries  map[string]*entry

	hits, misses, admitted, evicted int64
}

// NewRecycler returns a recycler with the given capacity (<= 0: unlimited).
func NewRecycler(capacity int64) *Recycler {
	return &Recycler{capacity: capacity, entries: make(map[string]*entry)}
}

// Stats reports cache activity.
type Stats struct {
	Hits, Misses, Admitted, Evicted int64
	Used                            int64
	Entries                         int
}

// Stats returns a snapshot.
func (r *Recycler) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Hits: r.hits, Misses: r.misses, Admitted: r.admitted,
		Evicted: r.evicted, Used: r.used, Entries: len(r.entries),
	}
}

// Flush drops every cached result (update invalidation).
func (r *Recycler) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = make(map[string]*entry)
	r.used = 0
}

func (r *Recycler) lookup(key string) (*catalog.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		e.refs++
		r.hits++
		return e.res, true
	}
	r.misses++
	return nil, false
}

// admit stores an intermediate unconditionally (materialization was free),
// evicting lowest-benefit entries if the budget requires.
func (r *Recycler) admit(key string, res *catalog.Result, cost time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[key]; dup {
		return
	}
	size := res.Bytes()
	if size <= 0 {
		size = 1
	}
	if r.capacity > 0 {
		if size > r.capacity {
			return
		}
		if r.used+size > r.capacity {
			r.evictFor(size)
		}
		if r.used+size > r.capacity {
			return
		}
	}
	r.entries[key] = &entry{key: key, res: res, size: size, cost: cost}
	r.used += size
	r.admitted++
}

// evictFor frees space in ascending benefit order (cost*refs/size).
func (r *Recycler) evictFor(need int64) {
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(a, b int) bool {
		return benefit(es[a]) < benefit(es[b])
	})
	for _, e := range es {
		if r.capacity-r.used >= need {
			return
		}
		delete(r.entries, e.key)
		r.used -= e.size
		r.evicted++
	}
}

func benefit(e *entry) float64 {
	refs := float64(e.refs)
	if refs == 0 {
		refs = 0.5 // fresh entries get a grace weight
	}
	return e.cost.Seconds() * refs / float64(e.size)
}
