package expr

import (
	"fmt"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	ADD ArithOp = iota
	SUB
	MUL
	DIV
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith is a binary arithmetic expression over numeric operands. Mixed
// int64/float64 operands promote to float64.
type Arith struct {
	Op   ArithOp
	L, R Expr
	typ  vector.Type

	lv, rv, tmp *vector.Vector // eval scratch; see scratchVec
}

// Add builds L + R.
func Add(l, r Expr) *Arith { return &Arith{Op: ADD, L: l, R: r} }

// Sub builds L - R.
func Sub(l, r Expr) *Arith { return &Arith{Op: SUB, L: l, R: r} }

// Mul builds L * R.
func Mul(l, r Expr) *Arith { return &Arith{Op: MUL, L: l, R: r} }

// Div builds L / R (always float64).
func Div(l, r Expr) *Arith { return &Arith{Op: DIV, L: l, R: r} }

// Bind implements Expr.
func (a *Arith) Bind(s catalog.Schema) (vector.Type, error) {
	lt, err := a.L.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	rt, err := a.R.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	num := func(t vector.Type) bool {
		return t == vector.Int64 || t == vector.Float64 || t == vector.Date
	}
	if !num(lt) || !num(rt) {
		return vector.Unknown, fmt.Errorf("expr: arithmetic over %v and %v", lt, rt)
	}
	if a.Op == DIV || lt == vector.Float64 || rt == vector.Float64 {
		a.typ = vector.Float64
	} else {
		a.typ = vector.Int64
	}
	return a.typ, nil
}

// Eval implements Expr.
func (a *Arith) Eval(b *vector.Batch, out *vector.Vector) error {
	lv := scratchVec(&a.lv, a.typ, b.Len())
	rv := scratchVec(&a.rv, a.typ, b.Len())
	if err := EvalAsScratch(a.L, b, lv, a.typ, scratchVec(&a.tmp, a.typ, 0)); err != nil {
		return err
	}
	if err := EvalAsScratch(a.R, b, rv, a.typ, scratchVec(&a.tmp, a.typ, 0)); err != nil {
		return err
	}
	n := b.Len()
	if a.typ == vector.Float64 {
		for i := 0; i < n; i++ {
			var x float64
			switch a.Op {
			case ADD:
				x = lv.F64[i] + rv.F64[i]
			case SUB:
				x = lv.F64[i] - rv.F64[i]
			case MUL:
				x = lv.F64[i] * rv.F64[i]
			case DIV:
				if rv.F64[i] != 0 {
					x = lv.F64[i] / rv.F64[i]
				}
			}
			out.F64 = append(out.F64, x)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		var x int64
		switch a.Op {
		case ADD:
			x = lv.I64[i] + rv.I64[i]
		case SUB:
			x = lv.I64[i] - rv.I64[i]
		case MUL:
			x = lv.I64[i] * rv.I64[i]
		}
		out.I64 = append(out.I64, x)
	}
	return nil
}

// AppendCanon implements Expr.
func (a *Arith) AppendCanon(b []byte, rename func(string) string) []byte {
	b = append(a.L.AppendCanon(append(b, '('), rename), a.Op.String()...)
	return append(a.R.AppendCanon(b, rename), ')')
}

// AddCols implements Expr.
func (a *Arith) AddCols(set map[string]struct{}) {
	a.L.AddCols(set)
	a.R.AddCols(set)
}

// Clone implements Expr.
func (a *Arith) Clone() Expr {
	return &Arith{Op: a.Op, L: a.L.Clone(), R: a.R.Clone(), typ: a.typ}
}

// --- CASE ----------------------------------------------------------------

// WhenClause is one WHEN cond THEN value arm of a CASE.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression with an ELSE arm.
type Case struct {
	Whens []WhenClause
	Else  Expr
	typ   vector.Type

	conds, thens []*vector.Vector // eval scratch; see scratchVec
	els, tmp     *vector.Vector
}

// CaseWhen builds CASE WHEN cond THEN then ELSE els END.
func CaseWhen(cond, then, els Expr) *Case {
	return &Case{Whens: []WhenClause{{Cond: cond, Then: then}}, Else: els}
}

// Bind implements Expr.
func (c *Case) Bind(s catalog.Schema) (vector.Type, error) {
	var t vector.Type
	for _, w := range c.Whens {
		ct, err := w.Cond.Bind(s)
		if err != nil {
			return vector.Unknown, err
		}
		if ct != vector.Bool {
			return vector.Unknown, fmt.Errorf("expr: CASE condition is %v, want bool", ct)
		}
		tt, err := w.Then.Bind(s)
		if err != nil {
			return vector.Unknown, err
		}
		t = mergeType(t, tt)
	}
	et, err := c.Else.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	t = mergeType(t, et)
	c.typ = t
	return t, nil
}

func mergeType(a, b vector.Type) vector.Type {
	if a == vector.Unknown {
		return b
	}
	if a == b {
		return a
	}
	return vector.Float64 // numeric widening; plans keep CASE arms numeric
}

// Eval implements Expr.
func (c *Case) Eval(b *vector.Batch, out *vector.Vector) error {
	n := b.Len()
	if c.conds == nil {
		c.conds = make([]*vector.Vector, len(c.Whens))
		c.thens = make([]*vector.Vector, len(c.Whens))
	}
	conds, thens := c.conds, c.thens
	for i, w := range c.Whens {
		cv := scratchVec(&conds[i], vector.Bool, n)
		if err := w.Cond.Eval(b, cv); err != nil {
			return err
		}
		tv := scratchVec(&thens[i], c.typ, n)
		if err := EvalAsScratch(w.Then, b, tv, c.typ, scratchVec(&c.tmp, c.typ, 0)); err != nil {
			return err
		}
	}
	els := scratchVec(&c.els, c.typ, n)
	if err := EvalAsScratch(c.Else, b, els, c.typ, scratchVec(&c.tmp, c.typ, 0)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		src := els
		for w := range c.Whens {
			if conds[w].B[i] {
				src = thens[w]
				break
			}
		}
		out.AppendFrom(src, i)
	}
	return nil
}

// AppendCanon implements Expr.
func (c *Case) AppendCanon(b []byte, rename func(string) string) []byte {
	b = append(b, "case("...)
	for _, w := range c.Whens {
		b = w.Cond.AppendCanon(b, rename)
		b = append(w.Then.AppendCanon(append(b, "->"...), rename), ';')
	}
	return append(c.Else.AppendCanon(append(b, "else->"...), rename), ')')
}

// AddCols implements Expr.
func (c *Case) AddCols(set map[string]struct{}) {
	for _, w := range c.Whens {
		w.Cond.AddCols(set)
		w.Then.AddCols(set)
	}
	c.Else.AddCols(set)
}

// Clone implements Expr.
func (c *Case) Clone() Expr {
	ws := make([]WhenClause, len(c.Whens))
	for i, w := range c.Whens {
		ws[i] = WhenClause{Cond: w.Cond.Clone(), Then: w.Then.Clone()}
	}
	return &Case{Whens: ws, Else: c.Else.Clone(), typ: c.typ}
}
