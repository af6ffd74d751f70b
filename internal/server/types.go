package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// PostgreSQL type OIDs for the engine's five physical types, plus the wire
// types clients commonly bind parameters with.
const (
	oidBool    = 16
	oidBytea   = 17
	oidInt8    = 20
	oidInt2    = 21
	oidInt4    = 23
	oidText    = 25
	oidFloat4  = 700
	oidFloat8  = 701
	oidVarchar = 1043
	oidDate    = 1082
	oidNumeric = 1700
	oidUnknown = 0
)

// pgDateEpochDays is 2000-01-01 (the binary DATE epoch) in days since
// 1970-01-01 (the engine's Date epoch).
const pgDateEpochDays = 10957

// typeOID maps an engine column type to the OID advertised in
// RowDescription.
func typeOID(t vector.Type) int32 {
	switch t {
	case vector.Int64:
		return oidInt8
	case vector.Float64:
		return oidFloat8
	case vector.String:
		return oidText
	case vector.Date:
		return oidDate
	case vector.Bool:
		return oidBool
	default:
		return oidText
	}
}

// typeSize returns the RowDescription type length (-1 = variable).
func typeSize(t vector.Type) int16 {
	switch t {
	case vector.Int64, vector.Float64:
		return 8
	case vector.Date:
		return 4
	case vector.Bool:
		return 1
	default:
		return -1
	}
}

// writeRowDescription emits a RowDescription for schema (text format).
func writeRowDescription(w *writeBuf, schema catalog.Schema) {
	w.beginMsg(msgRowDescription)
	w.int16(int16(len(schema)))
	for _, col := range schema {
		w.string(col.Name)
		w.int32(0) // table OID
		w.int16(0) // attribute number
		w.int32(typeOID(col.Typ))
		w.int16(typeSize(col.Typ))
		w.int32(-1) // type modifier
		w.int16(0)  // text format
	}
	w.endMsg()
}

// appendDatumText renders one value of a column vector in PostgreSQL text
// format, appending to dst. Floats use the shortest round-trip form, bools
// the single-letter form, dates ISO.
func appendDatumText(dst []byte, v *vector.Vector, row int) []byte {
	switch v.Typ {
	case vector.Int64:
		return strconv.AppendInt(dst, v.I64[row], 10)
	case vector.Float64:
		return appendFloatText(dst, v.F64[row])
	case vector.String:
		return append(dst, v.Str[row]...)
	case vector.Date:
		return vector.AppendDate(dst, v.I64[row])
	case vector.Bool:
		if v.B[row] {
			return append(dst, 't')
		}
		return append(dst, 'f')
	}
	return dst
}

// appendFloatText renders a float in PostgreSQL text form: shortest
// round-trip decimal, with Infinity/NaN spelled the way libpq expects.
//
// A value with at most four fraction digits and 1e-4 <= |f| < 1e6 (money,
// quantities: the decimals a table holds) is printed from its scaled
// integer r = round(f·10⁴), in the bytes strconv's shortest 'g' form gives:
//   - r/10⁴ == f means the decimal r/10⁴ parses back to f, since parsing
//     rounds correctly;
//   - no shorter decimal parses to f: every shorter one is another point of
//     the 10⁻⁴ grid, and below 1e6 the values that round to one double span
//     less than 1.2e-10;
//   - 'g' switches to the exponent form only below 1e-4 or from 1e6.
//
// Every other finite value, ±0 included, goes through strconv.
func appendFloatText(dst []byte, f float64) []byte {
	if a := math.Abs(f); a >= 1e-4 && a < 1e6 {
		if r := math.Round(f * 1e4); r/1e4 == f {
			return appendScaled4(dst, int64(r))
		}
	}
	switch {
	case math.IsInf(f, 1):
		return append(dst, "Infinity"...)
	case math.IsInf(f, -1):
		return append(dst, "-Infinity"...)
	case math.IsNaN(f):
		return append(dst, "NaN"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendScaled4 appends n/10⁴ in positional notation with trailing
// fraction zeros (and a bare decimal point) dropped.
func appendScaled4(dst []byte, n int64) []byte {
	if n < 0 {
		dst = append(dst, '-')
		n = -n
	}
	dst = strconv.AppendInt(dst, n/1e4, 10)
	frac := n % 1e4
	if frac == 0 {
		return dst
	}
	dst = append(dst, '.',
		byte('0'+frac/1000), byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
	for dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// decodeParam converts one Bind parameter to a Go value for the engine's
// parameter binding (Stmt.Query / toDatums). Conversions are
// exactness-preserving: integer text parses as int64 before any float
// fallback (the canonical-numeric rule — 2^53+1 must survive), float4
// binaries stay the float32 value they carried, and unknown-typed text
// infers only numbers and ISO dates, leaving everything else a string.
func decodeParam(oid int32, format int16, data []byte) (any, error) {
	switch format {
	case 0:
		return decodeTextParam(oid, string(data))
	case 1:
		return decodeBinaryParam(oid, data)
	default:
		return nil, fmt.Errorf("unknown parameter format code %d", format)
	}
}

func decodeTextParam(oid int32, s string) (any, error) {
	switch oid {
	case oidInt2, oidInt4, oidInt8:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid integer parameter %q", s)
		}
		return v, nil
	case oidFloat4, oidFloat8, oidNumeric:
		// Exact-integer numerics stay integers: the engine widens int64 to
		// float64 where a float is needed, but a float64 round trip would
		// corrupt integers above 2^53.
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v, nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid numeric parameter %q", s)
		}
		return v, nil
	case oidBool:
		switch strings.ToLower(s) {
		case "t", "true", "1", "yes", "on", "y":
			return true, nil
		case "f", "false", "0", "no", "off", "n":
			return false, nil
		}
		return nil, fmt.Errorf("invalid boolean parameter %q", s)
	case oidDate:
		days, err := vector.ParseDate(s)
		if err != nil {
			return nil, fmt.Errorf("invalid date parameter %q", s)
		}
		return vector.NewDateDatum(days), nil
	case oidText, oidVarchar, oidBytea:
		return s, nil
	case oidUnknown:
		return inferTextParam(s), nil
	default:
		// Unrecognized OID in text format: hand the raw text through.
		return s, nil
	}
}

// inferTextParam decodes an untyped text parameter: numerics and ISO dates
// — the forms the engine's implicit coercions understand — become int64,
// float64 or a date, and everything else stays the string the client sent.
// Integer text parses as int64 before any float fallback. The text's shape
// picks the one parse that can accept it, so a date or a plain string costs
// no failed parse (each failure allocates an error).
func inferTextParam(s string) any {
	switch {
	case dateShaped(s):
		if days, err := vector.ParseDate(s); err == nil {
			return vector.NewDateDatum(days)
		}
	case intShaped(s):
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
		fallthrough // out of int64 range: a float if ParseFloat takes it
	case floatShaped(s):
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return s
}

// dateShaped reports whether s has the one shape vector.ParseDate accepts:
// ten bytes with '-' at offsets 4 and 7. No integer or float has it.
func dateShaped(s string) bool {
	return len(s) == 10 && s[4] == '-' && s[7] == '-'
}

// intShaped reports whether s is an optional sign and decimal digits, the
// only text strconv.ParseInt accepts in base 10.
func intShaped(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// floatShaped reports whether strconv.ParseFloat may accept s: an optional
// sign, then a digit or a point, or one of its special values (a signed or
// unsigned "inf" or "infinity", an unsigned "nan", in any letter case).
func floatShaped(s string) bool {
	if strings.EqualFold(s, "nan") {
		return true
	}
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	c := s[0]
	return c >= '0' && c <= '9' || c == '.' || strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity")
}

func decodeBinaryParam(oid int32, data []byte) (any, error) {
	want := func(n int) error {
		if len(data) != n {
			return fmt.Errorf("binary parameter for oid %d has %d bytes, want %d", oid, len(data), n)
		}
		return nil
	}
	switch oid {
	case oidInt2:
		if err := want(2); err != nil {
			return nil, err
		}
		return int64(int16(uint16(data[0])<<8 | uint16(data[1]))), nil
	case oidInt4:
		if err := want(4); err != nil {
			return nil, err
		}
		return int64(int32(beUint32(data))), nil
	case oidInt8:
		if err := want(8); err != nil {
			return nil, err
		}
		return int64(beUint64(data)), nil
	case oidFloat4:
		if err := want(4); err != nil {
			return nil, err
		}
		return math.Float32frombits(beUint32(data)), nil
	case oidFloat8:
		if err := want(8); err != nil {
			return nil, err
		}
		return math.Float64frombits(beUint64(data)), nil
	case oidBool:
		if err := want(1); err != nil {
			return nil, err
		}
		return data[0] != 0, nil
	case oidDate:
		if err := want(4); err != nil {
			return nil, err
		}
		return vector.NewDateDatum(int64(int32(beUint32(data))) + pgDateEpochDays), nil
	case oidText, oidVarchar, oidBytea, oidUnknown:
		return append([]byte(nil), data...), nil
	default:
		return nil, fmt.Errorf("binary format not supported for parameter oid %d", oid)
	}
}

func beUint32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func beUint64(b []byte) uint64 {
	return uint64(beUint32(b))<<32 | uint64(beUint32(b[4:]))
}
