// Package expr implements scalar expressions evaluated over column vectors:
// column references, literals, comparisons, boolean connectives, arithmetic,
// LIKE patterns, IN lists, CASE, and the date/binning functions required by
// the paper's proactive cube-caching rules.
//
// Expressions serve two masters: the executor (Eval over batches) and the
// recycler graph (AppendCanon renders a canonical text with column names
// passed through a rename mapping, exactly the name-mapping mechanism of
// §III-A/B of the paper).
package expr

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// Expr is a scalar expression.
type Expr interface {
	// Bind resolves column references against the input schema and
	// returns the result type. Bind may be called repeatedly (rewrites
	// re-bind expressions against new child schemas).
	Bind(s catalog.Schema) (vector.Type, error)
	// Eval appends one value per logical input row to out. The expression
	// must have been bound against the batch's schema. Evaluation is
	// selection-aware: column references gather through the batch's
	// selection vector, so a filtered batch evaluates without compaction.
	Eval(b *vector.Batch, out *vector.Vector) error
	// AppendCanon appends a canonical text of the expression to b, column
	// names mapped through rename and literals in their typed spelling
	// (vector.Datum.AppendCanon). Two expressions are the same operation
	// iff their texts (under compatible mappings) are equal.
	AppendCanon(b []byte, rename func(string) string) []byte
	// AddCols inserts the names of referenced columns into set.
	AddCols(set map[string]struct{})
	// Clone returns a deep copy (rewrites mutate bindings).
	Clone() Expr
}

// Ident is the identity rename used when canonicalizing in a single
// namespace.
func Ident(s string) string { return s }

// Cols returns the sorted distinct column names referenced by e.
func Cols(e Expr) []string {
	set := make(map[string]struct{})
	e.AddCols(set)
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// --- Column reference -------------------------------------------------

// ErrUnknownColumn is wrapped by the error Bind returns for a column
// reference its input schema lacks.
var ErrUnknownColumn = errors.New("unknown column")

// Col is a reference to a named input column.
type Col struct {
	Name string
	idx  int
	typ  vector.Type
}

// C returns a column reference expression.
func C(name string) *Col { return &Col{Name: name} }

// Bind implements Expr.
func (c *Col) Bind(s catalog.Schema) (vector.Type, error) {
	i := s.ColIndex(c.Name)
	if i < 0 {
		return vector.Unknown, fmt.Errorf("expr: %w %q in schema %v", ErrUnknownColumn, c.Name, s.Names())
	}
	c.idx = i
	c.typ = s[i].Typ
	return c.typ, nil
}

// Eval implements Expr: a capacity-reusing bulk append of the referenced
// column — dense inputs copy whole slices, selective inputs gather through
// the selection vector in one typed loop.
func (c *Col) Eval(b *vector.Batch, out *vector.Vector) error {
	src := b.Vecs[c.idx]
	if b.Sel != nil {
		out.AppendGather(src, b.Sel)
		return nil
	}
	out.AppendAll(src)
	return nil
}

// AppendCanon implements Expr.
func (c *Col) AppendCanon(b []byte, rename func(string) string) []byte {
	return append(b, rename(c.Name)...)
}

// AddCols implements Expr.
func (c *Col) AddCols(set map[string]struct{}) { set[c.Name] = struct{}{} }

// Clone implements Expr.
func (c *Col) Clone() Expr { cc := *c; return &cc }

// --- Literal ----------------------------------------------------------

// Lit is a constant.
type Lit struct {
	D vector.Datum
}

// Int returns an int64 literal.
func Int(x int64) *Lit { return &Lit{D: vector.NewInt64Datum(x)} }

// Flt returns a float64 literal.
func Flt(x float64) *Lit { return &Lit{D: vector.NewFloat64Datum(x)} }

// Str returns a string literal.
func Str(x string) *Lit { return &Lit{D: vector.NewStringDatum(x)} }

// DateLit returns a date literal from "YYYY-MM-DD".
func DateLit(s string) *Lit { return &Lit{D: vector.NewDateDatum(vector.MustParseDate(s))} }

// DateDays returns a date literal from days since the epoch.
func DateDays(d int64) *Lit { return &Lit{D: vector.NewDateDatum(d)} }

// BoolLit returns a boolean literal.
func BoolLit(b bool) *Lit { return &Lit{D: vector.NewBoolDatum(b)} }

// Bind implements Expr.
func (l *Lit) Bind(s catalog.Schema) (vector.Type, error) { return l.D.Typ, nil }

// Eval implements Expr.
func (l *Lit) Eval(b *vector.Batch, out *vector.Vector) error {
	n := b.Len()
	switch l.D.Typ {
	case vector.Int64, vector.Date:
		for i := 0; i < n; i++ {
			out.I64 = append(out.I64, l.D.I64)
		}
	case vector.Float64:
		for i := 0; i < n; i++ {
			out.F64 = append(out.F64, l.D.F64)
		}
	case vector.String:
		for i := 0; i < n; i++ {
			out.Str = append(out.Str, l.D.Str)
		}
	case vector.Bool:
		for i := 0; i < n; i++ {
			out.B = append(out.B, l.D.B)
		}
	}
	return nil
}

// AppendCanon implements Expr.
func (l *Lit) AppendCanon(b []byte, rename func(string) string) []byte { return l.D.AppendCanon(b) }

// AddCols implements Expr.
func (l *Lit) AddCols(set map[string]struct{}) {}

// Clone implements Expr.
func (l *Lit) Clone() Expr { ll := *l; return &ll }

// --- Comparison -------------------------------------------------------

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Cmp compares two expressions, producing Bool.
type Cmp struct {
	Op   CmpOp
	L, R Expr
	lt   vector.Type

	lv, rv, tmp *vector.Vector // eval scratch; see scratchVec
}

// Eq builds L = R.
func Eq(l, r Expr) *Cmp { return &Cmp{Op: EQ, L: l, R: r} }

// Ne builds L <> R.
func Ne(l, r Expr) *Cmp { return &Cmp{Op: NE, L: l, R: r} }

// Lt builds L < R.
func Lt(l, r Expr) *Cmp { return &Cmp{Op: LT, L: l, R: r} }

// Le builds L <= R.
func Le(l, r Expr) *Cmp { return &Cmp{Op: LE, L: l, R: r} }

// Gt builds L > R.
func Gt(l, r Expr) *Cmp { return &Cmp{Op: GT, L: l, R: r} }

// Ge builds L >= R.
func Ge(l, r Expr) *Cmp { return &Cmp{Op: GE, L: l, R: r} }

// Bind implements Expr.
func (c *Cmp) Bind(s catalog.Schema) (vector.Type, error) {
	lt, err := c.L.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	rt, err := c.R.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	if !comparable(lt, rt) {
		return vector.Unknown, fmt.Errorf("expr: cannot compare %v with %v", lt, rt)
	}
	c.lt = promote(lt, rt)
	return vector.Bool, nil
}

func comparable(a, b vector.Type) bool {
	if a == b {
		return true
	}
	num := func(t vector.Type) bool {
		return t == vector.Int64 || t == vector.Float64 || t == vector.Date
	}
	return num(a) && num(b)
}

func promote(a, b vector.Type) vector.Type {
	if a == b {
		return a
	}
	if a == vector.Float64 || b == vector.Float64 {
		return vector.Float64
	}
	return vector.Int64 // date vs int64 mix compares on raw days
}

// Eval implements Expr.
func (c *Cmp) Eval(b *vector.Batch, out *vector.Vector) error {
	lv := scratchVec(&c.lv, c.lt, b.Len())
	rv := scratchVec(&c.rv, c.lt, b.Len())
	if err := EvalAsScratch(c.L, b, lv, c.lt, scratchVec(&c.tmp, c.lt, 0)); err != nil {
		return err
	}
	if err := EvalAsScratch(c.R, b, rv, c.lt, scratchVec(&c.tmp, c.lt, 0)); err != nil {
		return err
	}
	n := b.Len()
	switch c.lt {
	case vector.Int64, vector.Date:
		for i := 0; i < n; i++ {
			out.B = append(out.B, cmpMatch(c.Op, compareI64(lv.I64[i], rv.I64[i])))
		}
	case vector.Float64:
		for i := 0; i < n; i++ {
			out.B = append(out.B, cmpMatch(c.Op, compareF64(lv.F64[i], rv.F64[i])))
		}
	case vector.String:
		for i := 0; i < n; i++ {
			out.B = append(out.B, cmpMatch(c.Op, strings.Compare(lv.Str[i], rv.Str[i])))
		}
	case vector.Bool:
		for i := 0; i < n; i++ {
			out.B = append(out.B, cmpMatch(c.Op, compareBool(lv.B[i], rv.B[i])))
		}
	}
	return nil
}

func compareI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

func cmpMatch(op CmpOp, c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// EvalAsScratch evaluates e into out, coercing numeric results to type t
// through the caller-supplied buffer tmp, so hot loops (predicates,
// aggregate arguments) coerce without allocating. tmp may be nil (one is
// allocated if coercion is needed) and is clobbered.
func EvalAsScratch(e Expr, b *vector.Batch, out *vector.Vector, t vector.Type, tmp *vector.Vector) error {
	// Fast path: evaluate directly if types match.
	etype := exprType(e)
	if etype == t || (t == vector.Int64 && etype == vector.Date) ||
		(t == vector.Date && etype == vector.Int64) {
		out.Typ = t
		return e.Eval(b, out)
	}
	if tmp == nil {
		tmp = vector.New(etype, b.Len())
	} else {
		tmp.Typ = etype
		tmp.Reset()
	}
	if err := e.Eval(b, tmp); err != nil {
		return err
	}
	switch {
	case t == vector.Float64 && (etype == vector.Int64 || etype == vector.Date):
		for _, x := range tmp.I64 {
			out.F64 = append(out.F64, float64(x))
		}
	case (t == vector.Int64 || t == vector.Date) && etype == vector.Float64:
		for _, x := range tmp.F64 {
			out.I64 = append(out.I64, int64(x))
		}
	default:
		return fmt.Errorf("expr: cannot coerce %v to %v", etype, t)
	}
	return nil
}

// scratchVec lazily (re)initializes a node's reusable eval buffer: typed t,
// emptied, with capacity retained across calls. Scratch lives on the
// expression instance — plans are cloned per execution and Clone starts
// with nil scratch, so buffers are never shared between executions.
func scratchVec(p **vector.Vector, t vector.Type, capacity int) *vector.Vector {
	v := *p
	if v == nil {
		v = vector.New(t, capacity)
		*p = v
		return v
	}
	v.Typ = t
	v.Reset()
	return v
}

// exprType returns the type an already-bound expression produces. It uses a
// throwaway Bind against a nil schema for literals and relies on stored
// types elsewhere.
func exprType(e Expr) vector.Type {
	switch x := e.(type) {
	case *Col:
		return x.typ
	case *Lit:
		return x.D.Typ
	case *Cmp, *And, *Or, *Not, *Like, *InList:
		return vector.Bool
	case *Arith:
		return x.typ
	case *Case:
		return x.typ
	case *Year, *Month, *IntDiv:
		return vector.Int64
	case *Substr:
		return vector.String
	}
	return vector.Unknown
}

// AppendCanon implements Expr.
func (c *Cmp) AppendCanon(b []byte, rename func(string) string) []byte {
	b = append(c.L.AppendCanon(append(b, '('), rename), c.Op.String()...)
	return append(c.R.AppendCanon(b, rename), ')')
}

// AppendList appends each of xs to b through f, comma-separated: the one
// list spelling of canonical texts.
func AppendList[T any](b []byte, xs []T, f func(T, []byte) []byte) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = f(x, b)
	}
	return b
}

// appendCall appends fn(e1,e2,...), the canonical text of a node over
// operands es.
func appendCall(b []byte, fn string, rename func(string) string, es ...Expr) []byte {
	b = AppendList(append(append(b, fn...), '('), es, func(e Expr, b []byte) []byte { return e.AppendCanon(b, rename) })
	return append(b, ')')
}

// AddCols implements Expr.
func (c *Cmp) AddCols(set map[string]struct{}) {
	c.L.AddCols(set)
	c.R.AddCols(set)
}

// Clone implements Expr.
func (c *Cmp) Clone() Expr {
	return &Cmp{Op: c.Op, L: c.L.Clone(), R: c.R.Clone(), lt: c.lt}
}
