package exec

import (
	"fmt"
	"sync/atomic"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// Fragments: how Select, Project, Join and Aggregate nodes execute.
//
// Build hands every such node to buildFragment, which splits the subtree
// (plan.SpineNodes) into a source and the row-local interior above it,
// compiles the interior into fused push loops (fused.go), and picks the
// fragment root from what it can observe — never from a knob:
//
//   - The source is a morsel range over the statement's snapshot when the
//     spine ends in an undecorated base-table Scan, and a pull Operator
//     (built through Build, decorations and all) for everything else: a
//     CacheScan replay, a Store/WaitReuse-wrapped subtree, a table function,
//     a Sort/TopN/Limit/Union, another fragment.
//   - The worker count comes from the rows to scan and the statement's
//     budget (Ctx.Parallelism): a morsel source with at least two morsels of
//     rows splits across min(budget, morsels) workers, anything smaller and
//     every pull source runs one pipe on the calling goroutine.
//   - A pipeline roots in FusedPipeline (one worker: the push→pull adapter)
//     or Exchange (several: the ordered merge); an aggregation always roots
//     in AggOp, which runs a lone worker inline. Every root drives its pipes
//     with the one driver, fusedPipe.step; a root sees a finished morsel
//     only through the pipe's endMorsel hook.
//
// Two properties make execution observationally independent of the worker
// count, which is what keeps the recycler correct without changes:
//
//   - Determinism. The exchange emits morsel outputs in morsel order
//     (workers race, the merge reorders), every pipe flushes held join rows
//     at each morsel's end, join builds preserve arrival order within each
//     hash partition, and parallel aggregation sorts merged groups by first
//     occurrence in the morsel-ordered stream — so any worker count
//     produces the same rows in the same order and the same batches (float
//     aggregates modulo re-association). Materialized (cached) results are
//     therefore independent of the parallelism degree that produced them.
//
//   - Merge-point materialization. Recycler decorations end a spine: a node
//     carrying a reuse, wait, or store decoration is never compiled into a
//     worker, so store operators always observe the merged stream (one
//     admission per plan signature, deep-owned batches), and cached replays
//     feed fragments from the source side.
//
// Per-node row counts fold across workers: the root collects every pipe's
// row counters into one per-node total, and each interior plan node's stats
// entry is a foldOp, a view of that total, so the recycler prices a subtree
// from the same rows whatever the worker count.

// Engagement counters (process-wide); tests use them to assert a path
// engaged rather than went vacuous.
var (
	fusedFragments    atomic.Int64
	parallelFragments atomic.Int64
)

// FusedFragmentsBuilt returns the number of fragments compiled since
// process start (introspection/testing).
func FusedFragmentsBuilt() int64 { return fusedFragments.Load() }

// ParallelFragmentsBuilt returns how many of them split across more than
// one worker.
func ParallelFragmentsBuilt() int64 { return parallelFragments.Load() }

// buildFragment builds the operator for the Select, Project, Join or
// Aggregate node n.
func buildFragment(ctx *Ctx, n *plan.Node, dec Decorations, stats map[*plan.Node]NodeStats) (Operator, error) {
	barrier := func(x *plan.Node) bool { return dec[x] != nil }
	spine := plan.SpineNodes(n, barrier)
	leaf := spine[0]
	root := &fragRoot{base: base{schema: n.Schema()}}

	// The source and, from it, the worker count.
	var child Operator
	var scanCols []int
	nW := 1
	if leaf.Op == plan.Scan && !barrier(leaf) {
		tbl, cols, err := scanColumns(ctx, leaf)
		if err != nil {
			return nil, err
		}
		scanCols = cols
		snap := ctx.SnapFor(tbl)
		lo, msz, window := ctx.scanStart(tbl.Name, snap), ctx.morselRows(), 0
		if rows := snap.Rows - lo; ctx.Parallelism > 1 && rows >= 2*msz {
			nW = min(ctx.Parallelism, (rows+msz-1)/msz)
			if n.Op != plan.Aggregate {
				// Ordered merges buffer out-of-order morsel outputs; the
				// claim window bounds that buffer. Aggregations keep nothing.
				window = 2 * nW
			}
		}
		root.src = newMorselSource(snap, lo, snap.Rows, msz, window)
	} else {
		var err error
		if child, err = Build(ctx, leaf, dec, stats); err != nil {
			return nil, err
		}
	}

	// One build per join, shared by the fragment's pipes.
	for _, pn := range spine[1:] {
		if pn.Op == plan.Join {
			sb, err := buildJoin(ctx, pn, dec, stats, nW)
			if err != nil {
				return nil, err
			}
			root.builds = append(root.builds, sb)
		}
	}

	pipes := make([]*fusedPipe, nW)
	for w := range pipes {
		p := &fusedPipe{schema: spine[len(spine)-1].Schema(), child: child,
			src: root.src, scan: rangeScan{cols: scanCols}}
		builds := root.builds
		for _, pn := range spine[1:] {
			switch pn.Op {
			case plan.Select:
				p.addFilter(pn.Pred)
			case plan.Project:
				exprs := make([]expr.Expr, len(pn.Projs))
				for i, pr := range pn.Projs {
					exprs[i] = pr.E.Clone() // each pipe owns its evaluation scratch
				}
				p.addProject(exprs, pn.Schema())
			case plan.Join:
				p.addProbe(builds[0], pn.Schema())
				builds = builds[1:]
			}
		}
		pipes[w] = p
	}

	// Per-node row counts for the caller: a fold per interior node — and for
	// a morsel scan, which unlike a pull child has no operator of its own.
	if stats != nil {
		for k, pn := range spine {
			if k > 0 || child == nil {
				stats[pn] = &foldOp{root: root, k: k}
			}
		}
	}

	fusedFragments.Add(1)
	if nW > 1 {
		parallelFragments.Add(1)
	}
	switch {
	case n.Op == plan.Aggregate:
		groupCols, err := columnIndexes(n.Children[0].Schema(), n.GroupBy, "group-by column")
		if err != nil {
			return nil, err
		}
		aggs := make([]AggExpr, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = AggExpr{Func: a.Func, Arg: a.Arg, Typ: n.Schema()[len(n.GroupBy)+i].Typ}
		}
		return newAggOp(root, groupCols, aggs, pipes), nil
	case nW > 1:
		return newExchange(root, pipes), nil
	default:
		return newFusedPipeline(root, pipes[0]), nil
	}
}

// scanColumns resolves Scan node n to its table and column indexes.
func scanColumns(ctx *Ctx, n *plan.Node) (*catalog.Table, []int, error) {
	t, err := ctx.Cat.Table(n.Table)
	if err != nil {
		return nil, nil, err
	}
	cols, err := columnIndexes(t.Schema, n.Cols, "table column")
	if err != nil {
		err = fmt.Errorf("%w (table %s)", err, n.Table)
	}
	return t, cols, err
}

// columnIndexes maps names to their positions in schema; what names the
// kind of column in the error for a missing one.
func columnIndexes(schema catalog.Schema, names []string, what string) ([]int, error) {
	cols := make([]int, len(names))
	for i, c := range names {
		if cols[i] = schema.ColIndex(c); cols[i] < 0 {
			return nil, fmt.Errorf("exec: %s %q missing", what, c)
		}
	}
	return cols, nil
}

// fragRoot is the state the fragment roots share: the morsel source (nil for
// a pull-sourced fragment), the spine's join builds, which the root opens
// and closes on the consumer goroutine, and the rows the root has collected
// from its pipes per spine node — counted[0] the source's, counted[k] stage
// k's (see "Row counts" in fused.go). counted is written on the goroutine
// that drives the root; another goroutine reads it only once that is
// ordered before the read — by a join build's sync.Once when the fragment
// is a build side, then by the hand-off of a batch built on it.
type fragRoot struct {
	base
	src     *morselSource
	builds  []*sharedBuild
	counted []int64
}

func (r *fragRoot) openBuilds(ctx *Ctx) error {
	for _, b := range r.builds {
		if err := b.child.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

// closeBuilds closes the shared builds (store cancellation callbacks inside
// them fire here) and returns first, or else the first close error.
func (r *fragRoot) closeBuilds(ctx *Ctx, first error) error {
	for _, b := range r.builds {
		if err := b.close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sizeCounts sizes the root's counters for the spine of p, one of its pipes
// (all share its stages); every root constructor calls it first.
func (r *fragRoot) sizeCounts(p *fusedPipe) {
	r.counted = make([]int64, len(p.stages)+1)
}

// foldOp is the stats entry of spine node k of a fragment: the rows the root
// collected for it from all its pipes, so the recycler's pricing is
// oblivious to how many workers executed it. The fragment root's own entry
// is its operator, which reports the rows it handed up.
type foldOp struct {
	root *fragRoot
	k    int
}

func (f *foldOp) RowsOut() int64 { return f.root.counted[f.k] }
