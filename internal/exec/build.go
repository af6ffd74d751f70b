package exec

import (
	"fmt"

	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// ReuseSpec replaces a plan subtree with a replay of a cached result.
type ReuseSpec struct {
	Batches []*vector.Batch
	// OutIdx maps output position -> cached column index (the physical
	// form of the recycler's name mapping).
	OutIdx []int
	// Release unpins the cache entry when the scan closes.
	Release func()
}

// Decor attaches one recycler decision to a plan node: exactly one of
// Reuse, Wait and Store is set.
type Decor struct {
	Reuse *ReuseSpec
	Wait  *WaitSpec
	Store *StoreSpec
}

// Decorations maps plan nodes to recycler decisions made by the rewriter.
type Decorations map[*plan.Node]*Decor

// Build turns a resolved plan tree plus recycler decorations into an
// executable operator tree. If stats is non-nil it is filled with what
// execution counts for each plan node — the operator built for it (the
// Wait/Store wrapping it, if decorated), or, for a node compiled into fused
// pipes, a fold over them — from which the recycler prices the plan's
// results.
func Build(ctx *Ctx, n *plan.Node, dec Decorations, stats map[*plan.Node]NodeStats) (Operator, error) {
	d := dec[n]
	if d == nil {
		d = &Decor{}
	}
	// One function builds each plan op: the fragment builder for the
	// row-local nodes and aggregation, over any leaf; buildRaw for the rest.
	build := buildRaw
	switch n.Op {
	case plan.Select, plan.Project, plan.Join, plan.Aggregate:
		build = buildFragment
	}
	var op Operator
	var err error
	switch {
	case d.Reuse != nil:
		op = NewCacheScan(n.Schema(), d.Reuse.Batches, d.Reuse.OutIdx, d.Reuse.Release)
	case d.Wait != nil:
		if op, err = build(ctx, n, dec, stats); err == nil {
			op = NewWaitReuse(op, *d.Wait)
		}
	case d.Store != nil:
		if op, err = build(ctx, n, dec, stats); err == nil {
			op = NewStore(op, *d.Store)
		}
	default:
		op, err = build(ctx, n, dec, stats)
	}
	if err != nil {
		return nil, err
	}
	if stats != nil {
		stats[n] = op
	}
	return op, nil
}

func buildRaw(ctx *Ctx, n *plan.Node, dec Decorations, stats map[*plan.Node]NodeStats) (Operator, error) {
	switch n.Op {
	case plan.Scan:
		t, cols, err := scanColumns(ctx, n)
		if err != nil {
			return nil, err
		}
		return NewTableScan(t, cols, n.Schema()), nil
	case plan.TableFn:
		f, err := ctx.Cat.Func(n.Fn)
		if err != nil {
			return nil, err
		}
		return NewTableFnScan(f, n.Args), nil
	}
	children := make([]Operator, len(n.Children))
	for i, c := range n.Children {
		var err error
		if children[i], err = Build(ctx, c, dec, stats); err != nil {
			return nil, err
		}
	}
	switch n.Op {
	case plan.TopN:
		return NewSort(children[0], n.Keys, n.N), nil
	case plan.Sort:
		return NewSort(children[0], n.Keys, 0), nil
	case plan.Limit:
		return NewLimit(children[0], n.N), nil
	case plan.Union:
		return NewUnion(children[0], children[1]), nil
	}
	return nil, fmt.Errorf("exec: cannot build operator for %v", n.Op)
}
