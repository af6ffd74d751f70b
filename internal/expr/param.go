package expr

import (
	"fmt"
	"strconv"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// Param is a positional query parameter placeholder ("?"). Prepared
// statements substitute a literal for every Param before the plan resolves;
// a Param that survives to Bind or Eval means the statement was executed
// without bindings, which is reported rather than silently mis-evaluated.
type Param struct {
	Idx int // zero-based position in the statement's parameter list
}

// Par returns a parameter placeholder for position idx.
func Par(idx int) *Param { return &Param{Idx: idx} }

// Bind implements Expr. Placeholders never bind: binding happens only on
// plans whose parameters were substituted.
func (p *Param) Bind(s catalog.Schema) (vector.Type, error) {
	return vector.Unknown, fmt.Errorf("expr: unbound parameter ?%d", p.Idx+1)
}

// Eval implements Expr.
func (p *Param) Eval(b *vector.Batch, out *vector.Vector) error {
	return fmt.Errorf("expr: unbound parameter ?%d", p.Idx+1)
}

// AppendCanon implements Expr. Canonical placeholders are distinct from every
// literal rendering, so a parameter template never collides with a bound
// plan in the recycler graph.
func (p *Param) AppendCanon(b []byte, rename func(string) string) []byte {
	return strconv.AppendInt(append(b, '?'), int64(p.Idx+1), 10)
}

// AddCols implements Expr.
func (p *Param) AddCols(set map[string]struct{}) {}

// Clone implements Expr.
func (p *Param) Clone() Expr { pp := *p; return &pp }

// RewriteLeaves replaces sub-expressions bottom-up, in place: every node's
// children are rewritten first, then f is applied to the node itself and
// its return value takes the node's place. It is the substitution primitive
// for parameter binding (replace *Param leaves with *Lit).
func RewriteLeaves(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	var err error
	rw := func(c Expr) Expr {
		if err != nil {
			return c
		}
		var out Expr
		out, err = RewriteLeaves(c, f)
		return out
	}
	switch x := e.(type) {
	case *Cmp:
		x.L, x.R = rw(x.L), rw(x.R)
	case *And:
		for i := range x.Es {
			x.Es[i] = rw(x.Es[i])
		}
	case *Or:
		for i := range x.Es {
			x.Es[i] = rw(x.Es[i])
		}
	case *Not:
		x.E = rw(x.E)
	case *Like:
		x.E = rw(x.E)
	case *InList:
		x.E = rw(x.E)
	case *Arith:
		x.L, x.R = rw(x.L), rw(x.R)
	case *Case:
		for i := range x.Whens {
			x.Whens[i].Cond = rw(x.Whens[i].Cond)
			x.Whens[i].Then = rw(x.Whens[i].Then)
		}
		x.Else = rw(x.Else)
	case *Year:
		x.E = rw(x.E)
	case *Month:
		x.E = rw(x.E)
	case *IntDiv:
		x.E = rw(x.E)
	case *Substr:
		x.E = rw(x.E)
	}
	if err != nil {
		return nil, err
	}
	return f(e)
}
