package expr

import (
	"fmt"
	"strconv"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// Year extracts the calendar year of a Date operand. It is the binning
// function used by the paper's "cube caching with binning" example
// (year(shipdate), Fig. 5 right).
type Year struct {
	E Expr

	tmp *vector.Vector // eval scratch; see scratchVec
}

// YearOf builds year(e).
func YearOf(e Expr) *Year { return &Year{E: e} }

// Bind implements Expr.
func (y *Year) Bind(s catalog.Schema) (vector.Type, error) {
	t, err := y.E.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	if t != vector.Date {
		return vector.Unknown, fmt.Errorf("expr: year() over %v, want date", t)
	}
	return vector.Int64, nil
}

// Eval implements Expr.
func (y *Year) Eval(b *vector.Batch, out *vector.Vector) error {
	tmp := scratchVec(&y.tmp, vector.Date, b.Len())
	if err := y.E.Eval(b, tmp); err != nil {
		return err
	}
	for _, d := range tmp.I64 {
		out.I64 = append(out.I64, vector.YearOf(d))
	}
	return nil
}

// AppendCanon implements Expr.
func (y *Year) AppendCanon(b []byte, rename func(string) string) []byte {
	return appendCall(b, "year", rename, y.E)
}

// AddCols implements Expr.
func (y *Year) AddCols(set map[string]struct{}) { y.E.AddCols(set) }

// Clone implements Expr.
func (y *Year) Clone() Expr { return &Year{E: y.E.Clone()} }

// Month extracts the calendar month (1-12) of a Date operand.
type Month struct {
	E Expr

	tmp *vector.Vector // eval scratch; see scratchVec
}

// MonthOf builds month(e).
func MonthOf(e Expr) *Month { return &Month{E: e} }

// Bind implements Expr.
func (m *Month) Bind(s catalog.Schema) (vector.Type, error) {
	t, err := m.E.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	if t != vector.Date {
		return vector.Unknown, fmt.Errorf("expr: month() over %v, want date", t)
	}
	return vector.Int64, nil
}

// Eval implements Expr.
func (m *Month) Eval(b *vector.Batch, out *vector.Vector) error {
	tmp := scratchVec(&m.tmp, vector.Date, b.Len())
	if err := m.E.Eval(b, tmp); err != nil {
		return err
	}
	for _, d := range tmp.I64 {
		out.I64 = append(out.I64, vector.MonthOf(d))
	}
	return nil
}

// AppendCanon implements Expr.
func (m *Month) AppendCanon(b []byte, rename func(string) string) []byte {
	return appendCall(b, "month", rename, m.E)
}

// AddCols implements Expr.
func (m *Month) AddCols(set map[string]struct{}) { m.E.AddCols(set) }

// Clone implements Expr.
func (m *Month) Clone() Expr { return &Month{E: m.E.Clone()} }

// Substr extracts a byte substring [From, From+Len) of a string operand,
// 1-based like SQL SUBSTRING. Used by TPC-H Q22 (country code prefix).
type Substr struct {
	E    Expr
	From int
	Len  int

	tmp *vector.Vector // eval scratch; see scratchVec
}

// SubstrOf builds substring(e from f for l).
func SubstrOf(e Expr, from, length int) *Substr {
	return &Substr{E: e, From: from, Len: length}
}

// Bind implements Expr.
func (s *Substr) Bind(sc catalog.Schema) (vector.Type, error) {
	t, err := s.E.Bind(sc)
	if err != nil {
		return vector.Unknown, err
	}
	if t != vector.String {
		return vector.Unknown, fmt.Errorf("expr: substring over %v, want string", t)
	}
	return vector.String, nil
}

// Eval implements Expr.
func (s *Substr) Eval(b *vector.Batch, out *vector.Vector) error {
	tmp := scratchVec(&s.tmp, vector.String, b.Len())
	if err := s.E.Eval(b, tmp); err != nil {
		return err
	}
	for _, str := range tmp.Str {
		lo := s.From - 1
		if lo < 0 {
			lo = 0
		}
		hi := lo + s.Len
		if lo > len(str) {
			lo = len(str)
		}
		if hi > len(str) {
			hi = len(str)
		}
		out.Str = append(out.Str, str[lo:hi])
	}
	return nil
}

// AppendCanon implements Expr.
func (s *Substr) AppendCanon(b []byte, rename func(string) string) []byte {
	b = append(s.E.AppendCanon(append(b, "substr("...), rename), ',')
	b = append(strconv.AppendInt(b, int64(s.From), 10), ',')
	return append(strconv.AppendInt(b, int64(s.Len), 10), ')')
}

// AddCols implements Expr.
func (s *Substr) AddCols(set map[string]struct{}) { s.E.AddCols(set) }

// Clone implements Expr.
func (s *Substr) Clone() Expr { return &Substr{E: s.E.Clone(), From: s.From, Len: s.Len} }

// IntDiv computes floor integer division of a numeric operand by a positive
// constant. It is the generic binning primitive of §IV-B ("value/100 bins
// the column into 101 bins").
type IntDiv struct {
	E Expr
	K int64

	tmp *vector.Vector // eval scratch; see scratchVec
}

// BinBy builds e / k (integer division binning).
func BinBy(e Expr, k int64) *IntDiv { return &IntDiv{E: e, K: k} }

// Bind implements Expr.
func (d *IntDiv) Bind(s catalog.Schema) (vector.Type, error) {
	t, err := d.E.Bind(s)
	if err != nil {
		return vector.Unknown, err
	}
	if t != vector.Int64 && t != vector.Date && t != vector.Float64 {
		return vector.Unknown, fmt.Errorf("expr: bin over %v, want numeric", t)
	}
	if d.K <= 0 {
		return vector.Unknown, fmt.Errorf("expr: bin width must be positive, got %d", d.K)
	}
	return vector.Int64, nil
}

// Eval implements Expr.
func (d *IntDiv) Eval(b *vector.Batch, out *vector.Vector) error {
	t := exprType(d.E)
	tmp := scratchVec(&d.tmp, t, b.Len())
	if err := d.E.Eval(b, tmp); err != nil {
		return err
	}
	switch t {
	case vector.Int64, vector.Date:
		for _, x := range tmp.I64 {
			out.I64 = append(out.I64, floorDiv(x, d.K))
		}
	case vector.Float64:
		for _, x := range tmp.F64 {
			out.I64 = append(out.I64, floorDiv(int64(x), d.K))
		}
	}
	return nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// AppendCanon implements Expr.
func (d *IntDiv) AppendCanon(b []byte, rename func(string) string) []byte {
	b = append(d.E.AppendCanon(append(b, "bin("...), rename), ',')
	return append(strconv.AppendInt(b, int64(d.K), 10), ')')
}

// AddCols implements Expr.
func (d *IntDiv) AddCols(set map[string]struct{}) { d.E.AddCols(set) }

// Clone implements Expr.
func (d *IntDiv) Clone() Expr { return &IntDiv{E: d.E.Clone(), K: d.K} }
