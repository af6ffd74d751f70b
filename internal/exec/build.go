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

// Decor attaches recycler decisions to a plan node. At most one of Reuse
// and Wait is set; Store may combine with neither on the same node.
type Decor struct {
	Reuse *ReuseSpec
	Wait  *WaitSpec
	Store *StoreSpec
}

// Decorations maps plan nodes to recycler decisions made by the rewriter.
type Decorations map[*plan.Node]*Decor

// Build turns a resolved plan tree plus recycler decorations into an
// executable operator tree. If opmap is non-nil it is filled with the
// statistics of each plan node — the operator built for it (the outermost
// one when a node is wrapped by Wait/Store), or, for a node compiled into
// fused pipes, a fold over them — which the engine uses to annotate the
// recycler graph with measured costs and cardinalities after execution.
func Build(ctx *Ctx, n *plan.Node, dec Decorations, opmap map[*plan.Node]NodeStats) (Operator, error) {
	var d Decor
	if dec != nil {
		if dd := dec[n]; dd != nil {
			d = *dd
		}
	}
	if d.Reuse != nil {
		var op Operator = NewCacheScan(n.Schema(), d.Reuse.Batches, d.Reuse.OutIdx, d.Reuse.Release)
		if d.Store != nil {
			op = NewStore(op, *d.Store)
		}
		if opmap != nil {
			opmap[n] = op
		}
		return op, nil
	}
	// One function builds each plan op: the fragment builder for the
	// row-local nodes and aggregation, over any leaf; buildRaw for the rest.
	build := buildRaw
	switch n.Op {
	case plan.Select, plan.Project, plan.Join, plan.Aggregate:
		build = buildFragment
	}
	op, err := build(ctx, n, dec, opmap)
	if err != nil {
		return nil, err
	}
	if d.Wait != nil {
		op = NewWaitReuse(op, *d.Wait)
	}
	if d.Store != nil {
		op = NewStore(op, *d.Store)
	}
	if opmap != nil {
		opmap[n] = op
	}
	return op, nil
}

func buildRaw(ctx *Ctx, n *plan.Node, dec Decorations, opmap map[*plan.Node]NodeStats) (Operator, error) {
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
		if children[i], err = Build(ctx, c, dec, opmap); err != nil {
			return nil, err
		}
	}
	switch n.Op {
	case plan.TopN:
		return NewTopN(children[0], n.Keys, n.N), nil
	case plan.Sort:
		return NewSort(children[0], n.Keys), nil
	case plan.Limit:
		return NewLimit(children[0], n.N), nil
	case plan.Union:
		return NewUnion(children[0], children[1]), nil
	}
	return nil, fmt.Errorf("exec: cannot build operator for %v", n.Op)
}
