package expr

import (
	"fmt"
	"strconv"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// --- Boolean connectives ------------------------------------------------

// And is the conjunction of its operands.
type And struct {
	Es []Expr

	tmp *vector.Vector // eval scratch; see scratchVec
}

// AndOf builds a conjunction; a single operand is returned unchanged.
func AndOf(es ...Expr) Expr {
	if len(es) == 1 {
		return es[0]
	}
	return &And{Es: es}
}

// Bind implements Expr.
func (a *And) Bind(s catalog.Schema) (vector.Type, error) {
	for _, e := range a.Es {
		t, err := e.Bind(s)
		if err != nil {
			return vector.Unknown, err
		}
		if t != vector.Bool {
			return vector.Unknown, fmt.Errorf("expr: AND operand is %v, want bool", t)
		}
	}
	return vector.Bool, nil
}

// Eval implements Expr.
func (a *And) Eval(b *vector.Batch, out *vector.Vector) error {
	n := b.Len()
	start := out.Len()
	for i := 0; i < n; i++ {
		out.B = append(out.B, true)
	}
	tmp := scratchVec(&a.tmp, vector.Bool, n)
	for _, e := range a.Es {
		tmp.Reset()
		if err := e.Eval(b, tmp); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			out.B[start+i] = out.B[start+i] && tmp.B[i]
		}
	}
	return nil
}

// AppendCanon implements Expr.
func (a *And) AppendCanon(b []byte, rename func(string) string) []byte {
	return appendCall(b, "and", rename, a.Es...)
}

// AddCols implements Expr.
func (a *And) AddCols(set map[string]struct{}) {
	for _, e := range a.Es {
		e.AddCols(set)
	}
}

// Clone implements Expr.
func (a *And) Clone() Expr {
	es := make([]Expr, len(a.Es))
	for i, e := range a.Es {
		es[i] = e.Clone()
	}
	return &And{Es: es}
}

// Conjuncts returns e's flattened AND operands (e itself when it is not a
// conjunction). Fused filter stages evaluate conjuncts one at a time,
// refining the batch's shared selection vector between them, so each later
// conjunct is evaluated only over the earlier conjuncts' survivors — unlike
// And.Eval, which evaluates every operand over every row.
func Conjuncts(e Expr) []Expr {
	a, ok := e.(*And)
	if !ok {
		return []Expr{e}
	}
	out := make([]Expr, 0, len(a.Es))
	for _, c := range a.Es {
		out = append(out, Conjuncts(c)...)
	}
	return out
}

// Or is the disjunction of its operands.
type Or struct {
	Es []Expr

	tmp *vector.Vector // eval scratch; see scratchVec
}

// OrOf builds a disjunction; a single operand is returned unchanged.
func OrOf(es ...Expr) Expr {
	if len(es) == 1 {
		return es[0]
	}
	return &Or{Es: es}
}

// Bind implements Expr.
func (o *Or) Bind(s catalog.Schema) (vector.Type, error) {
	for _, e := range o.Es {
		t, err := e.Bind(s)
		if err != nil {
			return vector.Unknown, err
		}
		if t != vector.Bool {
			return vector.Unknown, fmt.Errorf("expr: OR operand is %v, want bool", t)
		}
	}
	return vector.Bool, nil
}

// Eval implements Expr.
func (o *Or) Eval(b *vector.Batch, out *vector.Vector) error {
	n := b.Len()
	start := out.Len()
	for i := 0; i < n; i++ {
		out.B = append(out.B, false)
	}
	tmp := scratchVec(&o.tmp, vector.Bool, n)
	for _, e := range o.Es {
		tmp.Reset()
		if err := e.Eval(b, tmp); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			out.B[start+i] = out.B[start+i] || tmp.B[i]
		}
	}
	return nil
}

// AppendCanon implements Expr.
func (o *Or) AppendCanon(b []byte, rename func(string) string) []byte {
	return appendCall(b, "or", rename, o.Es...)
}

// AddCols implements Expr.
func (o *Or) AddCols(set map[string]struct{}) {
	for _, e := range o.Es {
		e.AddCols(set)
	}
}

// Clone implements Expr.
func (o *Or) Clone() Expr {
	es := make([]Expr, len(o.Es))
	for i, e := range o.Es {
		es[i] = e.Clone()
	}
	return &Or{Es: es}
}

// Not negates a boolean operand.
type Not struct {
	E Expr

	tmp *vector.Vector // eval scratch; see scratchVec
}

// NotOf builds NOT e.
func NotOf(e Expr) *Not { return &Not{E: e} }

// Bind implements Expr.
func (n *Not) Bind(s catalog.Schema) (vector.Type, error) {
	t, err := n.E.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	if t != vector.Bool {
		return vector.Unknown, fmt.Errorf("expr: NOT operand is %v, want bool", t)
	}
	return vector.Bool, nil
}

// Eval implements Expr.
func (n *Not) Eval(b *vector.Batch, out *vector.Vector) error {
	tmp := scratchVec(&n.tmp, vector.Bool, b.Len())
	if err := n.E.Eval(b, tmp); err != nil {
		return err
	}
	for _, x := range tmp.B {
		out.B = append(out.B, !x)
	}
	return nil
}

// AppendCanon implements Expr.
func (n *Not) AppendCanon(b []byte, rename func(string) string) []byte {
	return appendCall(b, "not", rename, n.E)
}

// AddCols implements Expr.
func (n *Not) AddCols(set map[string]struct{}) { n.E.AddCols(set) }

// Clone implements Expr.
func (n *Not) Clone() Expr { return &Not{E: n.E.Clone()} }

// --- LIKE ---------------------------------------------------------------

// Like matches a string expression against a SQL LIKE pattern with % and _
// wildcards.
type Like struct {
	E       Expr
	Pattern string
	Negate  bool

	tmp *vector.Vector // eval scratch; see scratchVec
}

// LikeOf builds E LIKE pattern.
func LikeOf(e Expr, pattern string) *Like { return &Like{E: e, Pattern: pattern} }

// NotLikeOf builds E NOT LIKE pattern.
func NotLikeOf(e Expr, pattern string) *Like {
	return &Like{E: e, Pattern: pattern, Negate: true}
}

// Bind implements Expr.
func (l *Like) Bind(s catalog.Schema) (vector.Type, error) {
	t, err := l.E.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	if t != vector.String {
		return vector.Unknown, fmt.Errorf("expr: LIKE operand is %v, want string", t)
	}
	return vector.Bool, nil
}

// Eval implements Expr.
func (l *Like) Eval(b *vector.Batch, out *vector.Vector) error {
	tmp := scratchVec(&l.tmp, vector.String, b.Len())
	if err := l.E.Eval(b, tmp); err != nil {
		return err
	}
	for _, s := range tmp.Str {
		m := likeMatch(s, l.Pattern)
		if l.Negate {
			m = !m
		}
		out.B = append(out.B, m)
	}
	return nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// by greedy segment matching (the classic glob algorithm).
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star != -1:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// AppendCanon implements Expr.
func (l *Like) AppendCanon(b []byte, rename func(string) string) []byte {
	if l.Negate {
		b = append(b, "not"...)
	}
	b = l.E.AppendCanon(append(b, "like("...), rename)
	return append(strconv.AppendQuote(append(b, ','), l.Pattern), ')')
}

// AddCols implements Expr.
func (l *Like) AddCols(set map[string]struct{}) { l.E.AddCols(set) }

// Clone implements Expr.
func (l *Like) Clone() Expr {
	return &Like{E: l.E.Clone(), Pattern: l.Pattern, Negate: l.Negate}
}

// --- IN list ------------------------------------------------------------

// InList tests membership of a value in a constant list.
type InList struct {
	E      Expr
	Vals   []vector.Datum
	Negate bool

	tmp *vector.Vector // eval scratch; see scratchVec
}

// In builds E IN (vals...).
func In(e Expr, vals ...vector.Datum) *InList { return &InList{E: e, Vals: vals} }

// NotIn builds E NOT IN (vals...).
func NotIn(e Expr, vals ...vector.Datum) *InList {
	return &InList{E: e, Vals: vals, Negate: true}
}

// InStrings builds E IN over string literals.
func InStrings(e Expr, vals ...string) *InList {
	ds := make([]vector.Datum, len(vals))
	for i, v := range vals {
		ds[i] = vector.NewStringDatum(v)
	}
	return &InList{E: e, Vals: ds}
}

// Bind implements Expr.
func (l *InList) Bind(s catalog.Schema) (vector.Type, error) {
	t, err := l.E.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	for _, d := range l.Vals {
		if !comparable(t, d.Typ) {
			return vector.Unknown, fmt.Errorf("expr: IN list value %v incompatible with %v", d, t)
		}
	}
	return vector.Bool, nil
}

// Eval implements Expr.
func (l *InList) Eval(b *vector.Batch, out *vector.Vector) error {
	t := exprType(l.E)
	tmp := scratchVec(&l.tmp, t, b.Len())
	if err := l.E.Eval(b, tmp); err != nil {
		return err
	}
	n := tmp.Len()
	for i := 0; i < n; i++ {
		d := tmp.Datum(i)
		found := false
		for _, v := range l.Vals {
			if d.Typ == v.Typ && d.Equal(v) {
				found = true
				break
			}
			// Numeric cross-type membership.
			if comparable(d.Typ, v.Typ) && d.Typ != v.Typ {
				if toF64(d) == toF64(v) {
					found = true
					break
				}
			}
		}
		if l.Negate {
			found = !found
		}
		out.B = append(out.B, found)
	}
	return nil
}

func toF64(d vector.Datum) float64 {
	switch d.Typ {
	case vector.Int64, vector.Date:
		return float64(d.I64)
	case vector.Float64:
		return d.F64
	}
	return 0
}

// AppendCanon implements Expr.
func (l *InList) AppendCanon(b []byte, rename func(string) string) []byte {
	if l.Negate {
		b = append(b, "not"...)
	}
	b = append(l.E.AppendCanon(append(b, "in("...), rename), ",["...)
	return append(AppendList(b, l.Vals, vector.Datum.AppendCanon), "])"...)
}

// AddCols implements Expr.
func (l *InList) AddCols(set map[string]struct{}) { l.E.AddCols(set) }

// Clone implements Expr.
func (l *InList) Clone() Expr {
	return &InList{E: l.E.Clone(), Vals: append([]vector.Datum(nil), l.Vals...), Negate: l.Negate}
}

// Between builds lo <= e AND e <= hi.
func Between(e Expr, lo, hi Expr) Expr {
	return AndOf(Ge(e, lo), Le(e.Clone(), hi))
}
