package exec

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"recycledb/internal/catalog"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Byte-string key encoding: the test oracle for group/join key equality. The
// executor hashes key columns vectorized (hash.go) and verifies with typed
// comparators; this encoding is the executable specification the property
// tests below hold them in lockstep with.

// appendKey appends a type-tagged encoding of physical row i of v to buf,
// so that multi-column group/join keys can be compared as byte strings.
//
// Mixed-type (coerce=true) numeric keys encode through an
// exactness-preserving canonical form: any value exactly representable as
// int64 — every int64, and every float64 that is integral and in range —
// encodes as tag 'i' plus its int64 bits; every other float64 encodes as
// tag 'f' plus its IEEE bits. 1 and 1.0 still collide (intended for
// coerced joins), but an int64 above 2^53 is never narrowed through
// float64, so e.g. 2^53 and 2^53+1 stay distinct keys (they used to
// collapse onto the same float encoding).
func appendKey(buf []byte, v *vector.Vector, i int, coerce bool) []byte {
	switch v.Typ {
	case vector.Int64, vector.Date:
		buf = append(buf, 'i')
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I64[i]))
	case vector.Float64:
		f := v.F64[i]
		if coerce && f == math.Trunc(f) && f >= minExactI64 && f < maxExactI64 {
			buf = append(buf, 'i')
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(f)))
		} else {
			buf = append(buf, 'f')
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	case vector.String:
		buf = append(buf, 's')
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str[i])))
		buf = append(buf, v.Str[i]...)
	case vector.Bool:
		buf = append(buf, 'b')
		if v.B[i] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// Regression: with coerce=true the old encoding narrowed every int64
// through float64, so distinct keys above 2^53 collapsed onto the same
// byte string (2^53 and 2^53+1 both encoded as float64(2^53)).
func TestKeyEncodingLargeInt64NotCollapsed(t *testing.T) {
	const big = int64(1) << 53
	iv := vector.New(vector.Int64, 2)
	iv.AppendInt64(big)
	iv.AppendInt64(big + 1)
	k0 := string(appendKey(nil, iv, 0, true))
	k1 := string(appendKey(nil, iv, 1, true))
	if k0 == k1 {
		t.Fatalf("coerced keys for %d and %d collide", big, big+1)
	}
	// The float64 nearest to big+1 is big itself: it must keep matching
	// the int64 it exactly equals, and only that one.
	fv := vector.New(vector.Float64, 1)
	fv.AppendFloat64(float64(big))
	kf := string(appendKey(nil, fv, 0, true))
	if kf != k0 {
		t.Fatalf("float64(2^53) must encode like int64(2^53)")
	}
	if kf == k1 {
		t.Fatalf("float64(2^53) must not encode like int64(2^53+1)")
	}
}

// Property: the vectorized comparator (valueEqual) agrees with the
// byte-string reference encoding for every int64/float64 pair under
// coercion, and hash equality is implied by key equality.
func TestKeyHashComparatorLockstep(t *testing.T) {
	check := func(x int64, f float64) bool {
		iv := vector.New(vector.Int64, 1)
		iv.AppendInt64(x)
		fv := vector.New(vector.Float64, 1)
		fv.AppendFloat64(f)
		byteEq := string(appendKey(nil, iv, 0, true)) == string(appendKey(nil, fv, 0, true))
		cmpEq := valueEqual(iv, 0, fv, 0)
		if byteEq != cmpEq {
			return false
		}
		if cmpEq {
			// Equal keys must hash identically.
			var hi, hf [1]uint64
			bi := &vector.Batch{Vecs: []*vector.Vector{iv}}
			bf := &vector.Batch{Vecs: []*vector.Vector{fv}}
			hashColumns(bi, []int{0}, hi[:])
			hashColumns(bf, []int{0}, hf[:])
			if hi[0] != hf[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Directed cases the generator is unlikely to hit.
	cases := []struct {
		x int64
		f float64
	}{
		{1 << 53, float64(1 << 53)},
		{1<<53 + 1, float64(1 << 53)},
		{math.MaxInt64, float64(math.MaxInt64)},
		{math.MinInt64, float64(math.MinInt64)},
		{0, 0.0},
		{0, math.Copysign(0, -1)},
		{7, 7.5},
		{-3, -3.0},
	}
	for _, c := range cases {
		if !check(c.x, c.f) {
			t.Fatalf("lockstep violated for int64(%d) vs float64(%g)", c.x, c.f)
		}
	}
}

// End-to-end regression: a coerced int64/float64 join above 2^53 must not
// produce phantom matches.
func TestJoinLargeInt64FloatCoercion(t *testing.T) {
	const big = int64(1) << 53
	bt := catalog.NewTable("build", catalog.Schema{{Name: "k", Typ: vector.Int64}})
	for _, v := range []int64{big, big + 1, big + 2} {
		if err := bt.AppendRows([]vector.Datum{vector.NewInt64Datum(v)}); err != nil {
			t.Fatal(err)
		}
	}
	pt := catalog.NewTable("probe", catalog.Schema{{Name: "f", Typ: vector.Float64}})
	// float64(big+1) rounds to big: exactly one build row (big) may match.
	if err := pt.AppendRows([]vector.Datum{vector.NewFloat64Datum(float64(big))}); err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(catalog.New())
	left := NewTableScan(pt, []int{0}, pt.Schema)
	right := NewTableScan(bt, []int{0}, bt.Schema)
	out := append(append(catalog.Schema{}, pt.Schema...), bt.Schema...)
	j := pipeJoin(plan.Inner, left, right, []int{0}, []int{0}, out, nil)
	res, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows(); got != 1 {
		t.Fatalf("coerced join above 2^53 produced %d rows, want 1", got)
	}
	if d := res.Batches[0].Row(0)[1]; d.I64 != big {
		t.Fatalf("joined against int64(%d), want %d", d.I64, big)
	}
}
