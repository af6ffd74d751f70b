// Package vector provides the typed column vectors and row batches that flow
// between operators in the vector-at-a-time execution engine. A Batch is a
// small horizontal slice of a result set (at most the engine's vector size,
// typically 1024 rows) stored column-wise, mirroring the Vectorwise/X100
// execution model the paper targets.
package vector

import (
	"bytes"
	"fmt"
	"strconv"
)

// Type identifies the physical type of a column vector.
type Type uint8

const (
	// Unknown is the zero Type; it is never valid in a schema.
	Unknown Type = iota
	// Int64 is a 64-bit signed integer column.
	Int64
	// Float64 is a 64-bit floating point column (used for decimals).
	Float64
	// String is a variable-width string column.
	String
	// Date is a day-granularity date stored as days since 1970-01-01
	// in the I64 payload.
	Date
	// Bool is a boolean column stored in the B payload.
	Bool
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Date:
		return "date"
	case Bool:
		return "bool"
	default:
		return "unknown"
	}
}

// Width returns the per-row byte width used for size accounting. String
// vectors account their payload separately; Width returns the per-row
// header overhead for them.
func (t Type) Width() int64 {
	switch t {
	case Int64, Float64, Date:
		return 8
	case Bool:
		return 1
	case String:
		return 16 // string header; payload added per value
	default:
		return 0
	}
}

// Vector is a single typed column of up to the engine vector size rows.
// Exactly one payload slice is in use, selected by Typ (Date shares I64,
// Bool uses B).
type Vector struct {
	Typ Type
	I64 []int64
	F64 []float64
	Str []string
	B   []bool
}

// New returns an empty vector of type t with capacity cap.
func New(t Type, capacity int) *Vector {
	v := &Vector{Typ: t}
	switch t {
	case Int64, Date:
		v.I64 = make([]int64, 0, capacity)
	case Float64:
		v.F64 = make([]float64, 0, capacity)
	case String:
		v.Str = make([]string, 0, capacity)
	case Bool:
		v.B = make([]bool, 0, capacity)
	}
	return v
}

// Len returns the number of rows in the vector.
func (v *Vector) Len() int {
	switch v.Typ {
	case Int64, Date:
		return len(v.I64)
	case Float64:
		return len(v.F64)
	case String:
		return len(v.Str)
	case Bool:
		return len(v.B)
	default:
		return 0
	}
}

// Slice returns a value copy of the vector bounded to its first n rows.
// The copy aliases the underlying storage; rows below n are immutable by
// the storage layer's epoch contract, so the slice stays valid while
// writers append beyond it.
func (v *Vector) Slice(n int) Vector {
	s := Vector{Typ: v.Typ}
	switch v.Typ {
	case Int64, Date:
		s.I64 = v.I64[:n:n]
	case Float64:
		s.F64 = v.F64[:n:n]
	case String:
		s.Str = v.Str[:n:n]
	case Bool:
		s.B = v.B[:n:n]
	}
	return s
}

// Reset truncates the vector to zero rows, retaining capacity.
func (v *Vector) Reset() {
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
	v.B = v.B[:0]
}

// AppendInt64 appends an int64 (or date) value.
func (v *Vector) AppendInt64(x int64) { v.I64 = append(v.I64, x) }

// AppendFloat64 appends a float64 value.
func (v *Vector) AppendFloat64(x float64) { v.F64 = append(v.F64, x) }

// AppendString appends a string value.
func (v *Vector) AppendString(x string) { v.Str = append(v.Str, x) }

// AppendBool appends a bool value.
func (v *Vector) AppendBool(x bool) { v.B = append(v.B, x) }

// AppendFrom appends row i of src to v. The vectors must have the same type.
func (v *Vector) AppendFrom(src *Vector, i int) {
	switch v.Typ {
	case Int64, Date:
		v.I64 = append(v.I64, src.I64[i])
	case Float64:
		v.F64 = append(v.F64, src.F64[i])
	case String:
		v.Str = append(v.Str, src.Str[i])
	case Bool:
		v.B = append(v.B, src.B[i])
	}
}

// AppendDatum appends a Datum, which must match the vector type.
func (v *Vector) AppendDatum(d Datum) {
	switch v.Typ {
	case Int64, Date:
		v.I64 = append(v.I64, d.I64)
	case Float64:
		v.F64 = append(v.F64, d.F64)
	case String:
		v.Str = append(v.Str, d.Str)
	case Bool:
		v.B = append(v.B, d.B)
	}
}

// Datum returns row i of the vector as a Datum.
func (v *Vector) Datum(i int) Datum {
	d := Datum{Typ: v.Typ}
	switch v.Typ {
	case Int64, Date:
		d.I64 = v.I64[i]
	case Float64:
		d.F64 = v.F64[i]
	case String:
		d.Str = v.Str[i]
	case Bool:
		d.B = v.B[i]
	}
	return d
}

// Bytes returns the approximate in-memory footprint of the vector, used for
// recycler cache accounting (size(R) in the paper's benefit metric).
func (v *Vector) Bytes() int64 {
	n := int64(v.Len())
	b := n * v.Typ.Width()
	if v.Typ == String {
		for _, s := range v.Str {
			b += int64(len(s))
		}
	}
	return b
}

// Clone returns a deep copy of the vector. Store operators clone batches
// they retain, because producers may reuse batch memory between Next calls.
func (v *Vector) Clone() *Vector {
	c := &Vector{Typ: v.Typ}
	switch v.Typ {
	case Int64, Date:
		c.I64 = append([]int64(nil), v.I64...)
	case Float64:
		c.F64 = append([]float64(nil), v.F64...)
	case String:
		c.Str = append([]string(nil), v.Str...)
	case Bool:
		c.B = append([]bool(nil), v.B...)
	}
	return c
}

// Datum is a single typed value.
type Datum struct {
	Typ Type
	I64 int64
	F64 float64
	Str string
	B   bool
}

// NewInt64Datum returns an Int64 Datum.
func NewInt64Datum(x int64) Datum { return Datum{Typ: Int64, I64: x} }

// NewFloat64Datum returns a Float64 Datum.
func NewFloat64Datum(x float64) Datum { return Datum{Typ: Float64, F64: x} }

// NewStringDatum returns a String Datum.
func NewStringDatum(x string) Datum { return Datum{Typ: String, Str: x} }

// NewDateDatum returns a Date Datum holding days since the epoch.
func NewDateDatum(days int64) Datum { return Datum{Typ: Date, I64: days} }

// NewBoolDatum returns a Bool Datum.
func NewBoolDatum(x bool) Datum { return Datum{Typ: Bool, B: x} }

// Equal reports whether two datums have identical type and value.
func (d Datum) Equal(o Datum) bool {
	if d.Typ != o.Typ {
		return false
	}
	switch d.Typ {
	case Int64, Date:
		return d.I64 == o.I64
	case Float64:
		return d.F64 == o.F64
	case String:
		return d.Str == o.Str
	case Bool:
		return d.B == o.B
	}
	return true
}

// Compare returns -1, 0 or +1 ordering d relative to o. It panics on
// mismatched types; plans are type-checked before execution.
func (d Datum) Compare(o Datum) int {
	if d.Typ != o.Typ {
		panic(fmt.Sprintf("vector: comparing %v with %v", d.Typ, o.Typ))
	}
	switch d.Typ {
	case Int64, Date:
		switch {
		case d.I64 < o.I64:
			return -1
		case d.I64 > o.I64:
			return 1
		}
	case Float64:
		switch {
		case d.F64 < o.F64:
			return -1
		case d.F64 > o.F64:
			return 1
		}
	case String:
		switch {
		case d.Str < o.Str:
			return -1
		case d.Str > o.Str:
			return 1
		}
	case Bool:
		switch {
		case !d.B && o.B:
			return -1
		case d.B && !o.B:
			return 1
		}
	}
	return 0
}

// String returns the datum's canonical spelling (AppendCanon).
func (d Datum) String() string { return string(d.AppendCanon(nil)) }

// AppendCanon appends the datum's canonical spelling to b, the one plan
// identity is rendered in. The type reads off the text: Int64 2 is "2",
// Float64 2 is "2.0", Date 2 is "date(2)" and String "2" is "\"2\"", so
// literals of different types never print alike.
func (d Datum) AppendCanon(b []byte) []byte {
	switch d.Typ {
	case Int64:
		return strconv.AppendInt(b, d.I64, 10)
	case Date:
		return append(strconv.AppendInt(append(b, "date("...), d.I64, 10), ')')
	case Float64:
		n := len(b)
		if b = strconv.AppendFloat(b, d.F64, 'g', -1, 64); !bytes.ContainsAny(b[n:], ".eIN") {
			b = append(b, ".0"...)
		}
		return b
	case String:
		return strconv.AppendQuote(b, d.Str)
	case Bool:
		return strconv.AppendBool(b, d.B)
	}
	return append(b, '?')
}
