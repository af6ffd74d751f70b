package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"recycledb"
	"recycledb/internal/vector"
)

// TestDecodeTextParam pins each decode to its value and to
// refDecodeTextParam, the decoder that tried ParseInt, ParseFloat and
// ParseDate in turn on untyped text.
func TestDecodeTextParam(t *testing.T) {
	big := "9007199254740993" // 2^53+1: must stay an exact int64
	cases := []struct {
		name string
		oid  int32
		in   string
		want any
		err  bool
	}{
		{"int8", oidInt8, "42", int64(42), false},
		{"int8_big_exact", oidInt8, big, int64(9007199254740993), false},
		{"int8_garbage", oidInt8, "4x", nil, true},
		{"numeric_integer_stays_exact", oidNumeric, big, int64(9007199254740993), false},
		{"numeric_fraction", oidNumeric, "2.5", 2.5, false},
		{"float8_integer_stays_exact", oidFloat8, big, int64(9007199254740993), false},
		{"bool_t", oidBool, "t", true, false},
		{"bool_off", oidBool, "off", false, false},
		{"bool_bad", oidBool, "maybe", nil, true},
		{"date", oidDate, "1996-03-15", vector.NewDateDatum(vector.MustParseDate("1996-03-15")), false},
		{"date_bad", oidDate, "96-3-15", nil, true},
		{"date_no_such_day", oidDate, "1996-02-30", nil, true},
		{"text", oidText, "hello", "hello", false},
		{"unknown_int", oidUnknown, "17", int64(17), false},
		{"unknown_float", oidUnknown, "1.5", 1.5, false},
		{"unknown_date", oidUnknown, "1996-03-15", vector.NewDateDatum(vector.MustParseDate("1996-03-15")), false},
		{"unknown_text", oidUnknown, "kangaroo", "kangaroo", false},
		{"unknown_no_such_day", oidUnknown, "1996-02-30", "1996-02-30", false},
		{"unknown_big_exact", oidUnknown, big, int64(9007199254740993), false},
		{"unknown_past_int64", oidUnknown, "9223372036854775808", 9223372036854775808.0, false},
		{"unknown_minus_zero", oidUnknown, "-0", int64(0), false},
		{"unknown_minus_zero_float", oidUnknown, "-0.0", math.Copysign(0, -1), false},
		{"unknown_exponent", oidUnknown, "1e5", 1e5, false},
		{"unknown_leading_point", oidUnknown, ".5", 0.5, false},
		{"unknown_underscore", oidUnknown, "1_000", 1000.0, false},
		{"unknown_nan", oidUnknown, "NaN", math.NaN(), false},
		{"unknown_signed_nan", oidUnknown, "-nan", "-nan", false},
		{"unknown_inf", oidUnknown, "inf", math.Inf(1), false},
		{"unknown_infinity", oidUnknown, "Infinity", math.Inf(1), false},
		{"unknown_minus_infinity", oidUnknown, "-Infinity", math.Inf(-1), false},
		{"unknown_infinite", oidUnknown, "infinite", "infinite", false},
		{"unknown_hex_float", oidUnknown, "0x1p-2", 0.25, false},
		{"unknown_hex_fraction", oidUnknown, "0x1.8p1", 3.0, false},
		{"unknown_out_of_range", oidUnknown, "1e400", "1e400", false},
		{"unknown_iso_date", oidUnknown, "1995-03-15", vector.NewDateDatum(vector.MustParseDate("1995-03-15")), false},
		{"unknown_short_month", oidUnknown, "1995-3-15", "1995-3-15", false},
		{"unknown_word", oidUnknown, "BUILDING", "BUILDING", false},
		{"unknown_empty", oidUnknown, "", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decodeTextParam(tc.oid, tc.in)
			ref, referr := refDecodeTextParam(tc.oid, tc.in)
			if (err == nil) != (referr == nil) || !sameParam(got, ref) {
				t.Fatalf("got %#v, %v; the try-each-parse decoder gives %#v, %v", got, err, ref, referr)
			}
			if tc.err {
				if err == nil {
					t.Fatalf("want error, got %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameParam(got, tc.want) {
				t.Fatalf("got %#v, want %#v", got, tc.want)
			}
		})
	}
	// An untyped date or string costs no failed parse: the one allocation
	// left boxes the result.
	for _, in := range []string{"1995-03-15", "BUILDING"} {
		if n := testing.AllocsPerRun(100, func() { _ = inferTextParam(in) }); n > 1 {
			t.Errorf("untyped %q: %.0f allocations, want at most the result's box", in, n)
		}
	}
}

// FuzzDecodeTextParam checks decodeTextParam against refDecodeTextParam
// for every type OID and text the fuzzer finds.
func FuzzDecodeTextParam(f *testing.F) {
	oids := []int32{oidUnknown, oidInt8, oidNumeric, oidFloat8, oidBool, oidDate, oidText, 9999}
	for _, s := range []string{"42", "-0", "2.5", "1e5", ".5", "NaN", "+Inf", "0x1p-2", "1_000",
		"9007199254740993", "1995-03-15", "1995-3-15", "+199-01-02", "BUILDING", "t", ""} {
		f.Add(uint8(0), s)
	}
	f.Fuzz(func(t *testing.T, o uint8, s string) {
		oid := oids[int(o)%len(oids)]
		got, err := decodeTextParam(oid, s)
		want, werr := refDecodeTextParam(oid, s)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("oid %d %q: error %v, reference %v", oid, s, err, werr)
		}
		if !sameParam(got, want) {
			t.Fatalf("oid %d %q: got %#v, reference %#v", oid, s, got, want)
		}
	})
}

// sameParam reports whether two decoded parameters are the same value of
// the same type; floats compare by bits, so NaN equals NaN and -0 is not 0.
func sameParam(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case vector.Datum:
		y, ok := b.(vector.Datum)
		return ok && x.Typ == y.Typ && x.Equal(y)
	}
	return a == b
}

// refDecodeTextParam is decodeTextParam as it was before untyped text
// picked its parse by shape: the reference the shape-directed decoder must
// match on every input.
func refDecodeTextParam(oid int32, s string) (any, error) {
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
		// Untyped text parameter: infer numerics and ISO dates — the forms
		// the engine's implicit coercions understand — and keep everything
		// else as the string the client sent.
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v, nil
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v, nil
		}
		if days, err := vector.ParseDate(s); err == nil {
			return vector.NewDateDatum(days), nil
		}
		return s, nil
	default:
		// Unrecognized OID in text format: hand the raw text through.
		return s, nil
	}
}

func TestDecodeBinaryParam(t *testing.T) {
	be32 := func(v uint32) []byte { b := make([]byte, 4); binary.BigEndian.PutUint32(b, v); return b }
	be64 := func(v uint64) []byte { b := make([]byte, 8); binary.BigEndian.PutUint64(b, v); return b }

	if got, err := decodeBinaryParam(oidInt4, be32(uint32(0xFFFFFFFF))); err != nil || got.(int64) != -1 {
		t.Fatalf("int4: got %v, %v", got, err)
	}
	if got, err := decodeBinaryParam(oidInt8, be64(uint64(1)<<53+1)); err != nil || got.(int64) != int64(1)<<53+1 {
		t.Fatalf("int8: got %v, %v", got, err)
	}
	// float4 binaries arrive as the float32 they are; the engine widens
	// exactly, never through the shorter decimal rendering.
	f32 := float32(0.1)
	got, err := decodeBinaryParam(oidFloat4, be32(math.Float32bits(f32)))
	if err != nil {
		t.Fatal(err)
	}
	if got.(float32) != f32 {
		t.Fatalf("float4: got %v", got)
	}
	if got, err := decodeBinaryParam(oidFloat8, be64(math.Float64bits(2.5))); err != nil || got.(float64) != 2.5 {
		t.Fatalf("float8: got %v, %v", got, err)
	}
	// Binary DATE is days since 2000-01-01; the engine speaks days since
	// 1970-01-01.
	gd, err := decodeBinaryParam(oidDate, be32(0))
	if err != nil {
		t.Fatal(err)
	}
	if d := gd.(vector.Datum); d.I64 != vector.MustParseDate("2000-01-01") {
		t.Fatalf("date epoch: got %d, want %d", d.I64, vector.MustParseDate("2000-01-01"))
	}
	if _, err := decodeBinaryParam(oidInt4, []byte{1, 2}); err == nil {
		t.Fatal("want length error")
	}
	if _, err := decodeBinaryParam(oidNumeric, be64(0)); err == nil {
		t.Fatal("want unsupported-binary error for numeric")
	}
}

func TestAppendDatumText(t *testing.T) {
	iv := vector.New(vector.Int64, 1)
	iv.AppendInt64(math.MaxInt64)
	if got := string(appendDatumText(nil, iv, 0)); got != "9223372036854775807" {
		t.Fatalf("int: %q", got)
	}
	fv := vector.New(vector.Float64, 3)
	fv.AppendFloat64(2.5)
	fv.AppendFloat64(math.Inf(-1))
	fv.AppendFloat64(math.NaN())
	if got := string(appendDatumText(nil, fv, 0)); got != "2.5" {
		t.Fatalf("float: %q", got)
	}
	if got := string(appendDatumText(nil, fv, 1)); got != "-Infinity" {
		t.Fatalf("inf: %q", got)
	}
	if got := string(appendDatumText(nil, fv, 2)); got != "NaN" {
		t.Fatalf("nan: %q", got)
	}
	for _, want := range []string{"-0", "1e+06", "1e-05", "-123456.78", "0.0001", "999999.9999"} {
		f, _ := strconv.ParseFloat(want, 64)
		fv := vector.New(vector.Float64, 1)
		fv.AppendFloat64(f)
		if got := string(appendDatumText(nil, fv, 0)); got != want {
			t.Fatalf("float %v: got %q, want %q", f, got, want)
		}
	}
	for _, want := range []string{"1998-12-01", "0001-01-01", "1969-12-31", "1970-01-01", "9999-12-31"} {
		dv := vector.New(vector.Date, 1)
		dv.AppendInt64(vector.MustParseDate(want))
		if got := string(appendDatumText(nil, dv, 0)); got != want {
			t.Fatalf("date: got %q, want %q", got, want)
		}
	}
	bv := vector.New(vector.Bool, 2)
	bv.AppendBool(true)
	bv.AppendBool(false)
	if got := string(appendDatumText(nil, bv, 0)); got != "t" {
		t.Fatalf("bool: %q", got)
	}
	if got := string(appendDatumText(nil, bv, 1)); got != "f" {
		t.Fatalf("bool: %q", got)
	}
}

// checkFloatText fails t unless appendFloatText renders f with the bytes of
// strconv's shortest 'g' form, the form it promises (Inf and NaN aside).
// It is called tens of millions of times, so it does not mark itself a
// helper (t.Helper walks the stack).
func checkFloatText(t *testing.T, f float64) {
	var got, want [32]byte
	g := appendFloatText(got[:0], f)
	w := strconv.AppendFloat(want[:0], f, 'g', -1, 64)
	if string(g) != string(w) {
		t.Fatalf("appendFloatText(%v) [bits %#016x] = %q, strconv gives %q", f, math.Float64bits(f), g, w)
	}
}

// TestAppendFloatTextMatchesStrconv compares the scaled-integer fast path
// with strconv on the values it takes (decimals with up to four fraction
// digits), the ones it must refuse, and its range edges.
func TestAppendFloatTextMatchesStrconv(t *testing.T) {
	grid, stride, samples := int64(1_000_000), int64(9973), 1_000_000
	if testing.Short() {
		grid, stride, samples = 100_000, 99_991, 100_000
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1e-4, -1e-4, 9.9999e-5, 1.00005e-4,
		999999.9999, -999999.9999, 999999.99995, 999999.99994, 1e6, -1e6,
		0.1, 0.3, 1.0 / 3, 123456.7891, 5e-324, math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 9007199254740993,
	} {
		checkFloatText(t, f)
	}
	for k := -grid; k <= grid; k++ {
		checkFloatText(t, float64(k)/100)
		checkFloatText(t, float64(k)/1e4)
	}
	// The whole fast-path range at a prime stride, and the grid around its
	// upper edge, where f·10⁴ reaches 1e10.
	for k := int64(0); k <= 1e10; k += stride {
		checkFloatText(t, float64(k)/1e4)
	}
	for k := int64(1e10 - 1e4); k <= 1e10+1e4; k++ {
		checkFloatText(t, float64(k)/1e4)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < samples; i++ {
		checkFloatText(t, math.Float64frombits(rng.Uint64()))
		checkFloatText(t, float64(rng.Int63n(2e10)-1e10)/math.Pow10(rng.Intn(7)))
		checkFloatText(t, (rng.Float64()-0.5)*math.Pow10(rng.Intn(14)-6))
	}
}

// FuzzAppendFloatText checks appendFloatText against strconv's shortest
// 'g' form for every finite float the fuzzer finds.
func FuzzAppendFloatText(f *testing.F) {
	for _, x := range []float64{0, 1e-4, 9.9999e-5, 2.5, -123456.78, 999999.9999, 999999.99995, 1e6, 5e-324} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return
		}
		checkFloatText(t, x)
	})
}

// lineitemBatch builds an n-row batch shaped like a lineitem window: an
// Int64 key, decimal and non-decimal Float64s, a Date, a String and a Bool.
func lineitemBatch(n int) *recycledb.Batch {
	b := vector.NewBatch([]vector.Type{
		vector.Int64, vector.Float64, vector.Float64, vector.Date, vector.String, vector.Bool,
	}, n)
	rng := rand.New(rand.NewSource(3))
	base := vector.MustParseDate("1995-03-01")
	for i := 0; i < n; i++ {
		b.Vecs[0].AppendInt64(int64(1 + rng.Intn(6_000_000)))
		b.Vecs[1].AppendFloat64(float64(90_000+rng.Intn(10_000_000)) / 100)
		b.Vecs[2].AppendFloat64(rng.Float64() * 1e5)
		b.Vecs[3].AppendInt64(base + int64(rng.Intn(31)))
		b.Vecs[4].AppendString([...]string{"DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}[rng.Intn(3)])
		b.Vecs[5].AppendBool(rng.Intn(2) == 0)
	}
	return b
}

// encodeBatch encodes every row of b as a DataRow into sess's write
// buffer, emptied first.
func encodeBatch(sess *session, b *recycledb.Batch) {
	sess.wb.reset()
	for i := 0; i < b.Len(); i++ {
		sess.encodeDataRow(b, i)
	}
}

// TestEncodeDataRowZeroAlloc pins the wire encoder's contract: once the
// write buffer has grown, a DataRow costs its bytes and no allocation.
func TestEncodeDataRowZeroAlloc(t *testing.T) {
	b := lineitemBatch(256)
	sess := &session{}
	encodeBatch(sess, b)
	if allocs := testing.AllocsPerRun(20, func() { encodeBatch(sess, b) }); allocs != 0 {
		t.Fatalf("encoding %d rows allocated %.1f times, want 0", b.Len(), allocs)
	}
}

// BenchmarkEncodeDataRow encodes a batch the size of a month-long lineitem
// window; bytes/s is DataRow output.
func BenchmarkEncodeDataRow(b *testing.B) {
	batch := lineitemBatch(3700)
	sess := &session{}
	encodeBatch(sess, batch)
	b.SetBytes(int64(len(sess.wb.buf)))
	b.ReportAllocs()
	for b.Loop() {
		encodeBatch(sess, batch)
	}
}

func TestAppendCommandTag(t *testing.T) {
	cases := []struct {
		verb string
		n    int64
		want string
	}{
		{"SELECT", 0, "SELECT 0"},
		{"SELECT", 3712, "SELECT 3712"},
		{"INSERT", 1, "INSERT 0 1"},
		{"INSERT", 250, "INSERT 0 250"},
		{"DELETE", 0, "DELETE 0"},
		{"DELETE", 17, "DELETE 17"},
		{"CREATE", 0, "CREATE TABLE"},
		{"EXPLAIN", 4, "EXPLAIN"},
	}
	for _, tc := range cases {
		if got := string(appendCommandTag(nil, tc.verb, tc.n)); got != tc.want {
			t.Errorf("%s %d: got %q, want %q", tc.verb, tc.n, got, tc.want)
		}
	}
	// On the wire the tag is a NUL-terminated CommandComplete body.
	sess := &session{}
	sess.commandCompleteRows("INSERT", 2)
	want := append([]byte{msgCommandComplete, 0, 0, 0, 15}, "INSERT 0 2\x00"...)
	if string(sess.wb.buf) != string(want) {
		t.Fatalf("CommandComplete: got %q, want %q", sess.wb.buf, want)
	}
}

func TestParseTimeoutValue(t *testing.T) {
	cases := map[string]int64{
		"250":   250,
		"0":     0,
		"1s":    1000,
		"50ms":  50,
		"2min":  120000,
		"500us": 0, // rounds below 1ms but parses
	}
	for in, wantMS := range cases {
		d, err := parseTimeoutValue(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if in == "500us" {
			if d.Microseconds() != 500 {
				t.Errorf("%q: got %v", in, d)
			}
			continue
		}
		if d.Milliseconds() != wantMS {
			t.Errorf("%q: got %v, want %dms", in, d, wantMS)
		}
	}
	for _, bad := range []string{"-1", "abc", "1fortnight"} {
		if _, err := parseTimeoutValue(bad); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
}
