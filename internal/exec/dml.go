package exec

import (
	"fmt"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// MatchingRows evaluates pred over the statement snapshot of t and returns
// the physical row positions of live rows satisfying it, in ascending
// order. A nil pred matches every live row. The DELETE executor feeds the
// result to Writer.Delete.
//
// pred is bound here against the table schema; callers pass a private clone
// (binding mutates column references in place).
func MatchingRows(ctx *Ctx, t *catalog.Table, pred expr.Expr) ([]int, error) {
	snap := ctx.SnapFor(t)
	if pred != nil {
		typ, err := pred.Bind(t.Schema)
		if err != nil {
			return nil, err
		}
		if typ != vector.Bool {
			return nil, fmt.Errorf("exec: delete predicate has type %v, want bool", typ)
		}
	}
	var out []int
	flags := vector.New(vector.Bool, ctx.vecSize())
	view := &vector.Batch{Vecs: make([]*vector.Vector, len(t.Schema))}
	cols := make([]int, len(t.Schema))
	for i := range cols {
		view.Vecs[i] = &vector.Vector{Typ: t.Schema[i].Typ}
		cols[i] = i
	}
	for lo := 0; lo < snap.Rows; lo += ctx.vecSize() {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		hi := lo + ctx.vecSize()
		if hi > snap.Rows {
			hi = snap.Rows
		}
		sliceCols(view.Vecs, snap, cols, lo, hi)
		if pred == nil {
			for r := lo; r < hi; r++ {
				if !snap.Del.Has(r) {
					out = append(out, r)
				}
			}
			continue
		}
		flags.Reset()
		if err := pred.Eval(view, flags); err != nil {
			return nil, err
		}
		for i, ok := range flags.B[:hi-lo] {
			if ok && !snap.Del.Has(lo+i) {
				out = append(out, lo+i)
			}
		}
	}
	return out, nil
}
