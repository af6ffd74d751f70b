package plan

import (
	"fmt"

	"recycledb/internal/expr"
)

// BindParams replaces every parameter placeholder in the tree with the
// literal at its position, in place. Call on a Clone of the template; the
// bound tree still needs Resolve before execution.
func (n *Node) BindParams(lits []*expr.Lit) error {
	return n.substParams(func(p *expr.Param) (expr.Expr, error) {
		if p.Idx < 0 || p.Idx >= len(lits) {
			return nil, fmt.Errorf("plan: parameter ?%d has no binding (%d supplied)",
				p.Idx+1, len(lits))
		}
		return lits[p.Idx].Clone(), nil
	})
}

// substParams replaces every parameter placeholder in the tree with f's
// expression for it, in place. Binding and the shape template's cuts
// (NewShapeTemplate) both go through it, so they see the same placeholders.
func (n *Node) substParams(f func(*expr.Param) (expr.Expr, error)) error {
	var walkErr error
	n.Walk(func(x *Node) {
		sub := func(e expr.Expr) expr.Expr {
			if e == nil || walkErr != nil {
				return e
			}
			out, err := expr.RewriteLeaves(e, func(c expr.Expr) (expr.Expr, error) {
				if p, ok := c.(*expr.Param); ok {
					return f(p)
				}
				return c, nil
			})
			if err != nil {
				walkErr = err
				return e
			}
			return out
		}
		x.Pred = sub(x.Pred)
		for i := range x.Projs {
			x.Projs[i].E = sub(x.Projs[i].E)
		}
		for i := range x.Aggs {
			x.Aggs[i].Arg = sub(x.Aggs[i].Arg)
		}
	})
	return walkErr
}
