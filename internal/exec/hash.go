package exec

import (
	"math"

	"recycledb/internal/vector"
)

// Columnar hashing and typed key comparison for the vectorized hash join
// and hash aggregation. Keys are hashed whole-column-at-a-time into a
// per-row uint64, then probed through open-addressing tables; equality is
// verified with typed column comparators. Nothing is encoded per row; the
// byte-string key encoding survives only as the test oracle in key_test.go.
//
// Numeric values hash through an exactness-preserving canonical form so
// mixed int64/float64 keys (coerced joins, numeric IN) agree: any value
// exactly representable as int64 — every int64, and every float64 that is
// integral and in range — hashes as class "int" with its int64 bits; any
// other float64 hashes as class "float" with its IEEE bits. 1 and 1.0
// collide (intended); 2^53 and 2^53+1 do not (the appendKey regression).

const (
	hashSeed  uint64 = 0x9e3779b97f4a7c15
	hashPrime uint64 = 0xc6a4a7935bd1e995 // Murmur64 multiplier

	// Class tags keep canonical ints, non-integral floats, strings and
	// bools from colliding structurally.
	classInt   uint64 = 0xd6e8feb86659fd93
	classFloat uint64 = 0xa5a5a5a5a5a5a5a5
	classBool  uint64 = 0x94d049bb133111eb
)

// float64 bounds of the int64-exact window: integral floats in
// [-2^63, 2^63) convert to int64 losslessly.
const (
	minExactI64 = -9223372036854775808.0 // -2^63
	maxExactI64 = 9223372036854775808.0  // 2^63
)

// mix64 folds one 64-bit word into a running hash (Murmur-style).
func mix64(h, x uint64) uint64 {
	x *= hashPrime
	x ^= x >> 47
	x *= hashPrime
	h ^= x
	h *= hashPrime
	return h
}

// canonF64 returns the canonical hash word of a float64.
func canonF64(f float64) uint64 {
	if f == math.Trunc(f) && f >= minExactI64 && f < maxExactI64 {
		return uint64(int64(f)) ^ classInt
	}
	return math.Float64bits(f) ^ classFloat
}

// hashColumns computes one hash per logical row of b over the given key
// columns into hs (len(hs) must equal b.Len()). It is selection-aware.
func hashColumns(b *vector.Batch, cols []int, hs []uint64) {
	for i := range hs {
		hs[i] = hashSeed
	}
	for _, c := range cols {
		hashCol(b.Vecs[c], b.Sel, hs)
	}
}

// fastHashType reports whether a key column type qualifies for the
// single-column fast path below.
func fastHashType(t vector.Type) bool { return t == vector.Int64 || t == vector.Date }

// hashI64Fast is the single-column int64/date key fast path: the seed-init
// pass and the canonical class tag both fold away, leaving one fused loop
// of independent mix64 chains — unrolled 4-wide in the dense case so the
// multiply chains overlap instead of serializing behind one accumulator.
//
// The produced hashes differ from hashColumns' (no classInt XOR), which is
// why the path is an all-or-nothing choice per hash table: every producer
// of a directory's hashes — both sides of a join, all worker partials of a
// parallel aggregation — must qualify and agree, which the callers ensure
// by gating on the statically known key column types (and mixed
// int64/float64 keys, where the canonical form is load-bearing, never
// qualify). Equality verification is untouched, so the >2^53 exactness
// rule of keyRowsEqual holds on this path too.
func hashI64Fast(v *vector.Vector, sel []int32, hs []uint64) {
	xs := v.I64
	if sel != nil {
		sel = sel[:len(hs)]
		for i, r := range sel {
			hs[i] = mix64(hashSeed, uint64(xs[r]))
		}
		return
	}
	n := len(hs)
	xs = xs[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		hs[i] = mix64(hashSeed, uint64(xs[i]))
		hs[i+1] = mix64(hashSeed, uint64(xs[i+1]))
		hs[i+2] = mix64(hashSeed, uint64(xs[i+2]))
		hs[i+3] = mix64(hashSeed, uint64(xs[i+3]))
	}
	for ; i < n; i++ {
		hs[i] = mix64(hashSeed, uint64(xs[i]))
	}
}

// hashCol folds one column into the per-row hashes, one tight typed loop
// per (type, selection) combination.
func hashCol(v *vector.Vector, sel []int32, hs []uint64) {
	switch v.Typ {
	case vector.Int64, vector.Date:
		if sel != nil {
			xs := v.I64
			for i, r := range sel {
				hs[i] = mix64(hs[i], uint64(xs[r])^classInt)
			}
		} else {
			// Block-unrolled: each row's mix chain is independent, so a
			// 4-wide body keeps several multiply chains in flight. Hash
			// values are identical to the rolled loop's.
			n := len(hs)
			xs := v.I64[:n]
			i := 0
			for ; i+4 <= n; i += 4 {
				hs[i] = mix64(hs[i], uint64(xs[i])^classInt)
				hs[i+1] = mix64(hs[i+1], uint64(xs[i+1])^classInt)
				hs[i+2] = mix64(hs[i+2], uint64(xs[i+2])^classInt)
				hs[i+3] = mix64(hs[i+3], uint64(xs[i+3])^classInt)
			}
			for ; i < n; i++ {
				hs[i] = mix64(hs[i], uint64(xs[i])^classInt)
			}
		}
	case vector.Float64:
		if sel != nil {
			xs := v.F64
			for i, r := range sel {
				hs[i] = mix64(hs[i], canonF64(xs[r]))
			}
		} else {
			n := len(hs)
			xs := v.F64[:n]
			i := 0
			for ; i+4 <= n; i += 4 {
				hs[i] = mix64(hs[i], canonF64(xs[i]))
				hs[i+1] = mix64(hs[i+1], canonF64(xs[i+1]))
				hs[i+2] = mix64(hs[i+2], canonF64(xs[i+2]))
				hs[i+3] = mix64(hs[i+3], canonF64(xs[i+3]))
			}
			for ; i < n; i++ {
				hs[i] = mix64(hs[i], canonF64(xs[i]))
			}
		}
	case vector.String:
		if sel != nil {
			for i, r := range sel {
				hs[i] = mix64(hs[i], hashString(v.Str[r]))
			}
		} else {
			for i, s := range v.Str {
				hs[i] = mix64(hs[i], hashString(s))
			}
		}
	case vector.Bool:
		if sel != nil {
			for i, r := range sel {
				x := classBool
				if v.B[r] {
					x++
				}
				hs[i] = mix64(hs[i], x)
			}
		} else {
			for i, x := range v.B {
				w := classBool
				if x {
					w++
				}
				hs[i] = mix64(hs[i], w)
			}
		}
	}
}

// hashString is FNV-1a over the string bytes.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// valueEqual compares physical row ai of av with physical row bi of bv.
// Same-type columns compare directly (floats by bit pattern, matching the
// byte-string key semantics for NaN and signed zero); mixed int64/float64
// columns compare exactly through the canonical form, never narrowing an
// int64 through float64.
func valueEqual(av *vector.Vector, ai int, bv *vector.Vector, bi int) bool {
	switch av.Typ {
	case vector.Int64, vector.Date:
		switch bv.Typ {
		case vector.Int64, vector.Date:
			return av.I64[ai] == bv.I64[bi]
		case vector.Float64:
			return intFloatEq(av.I64[ai], bv.F64[bi])
		}
	case vector.Float64:
		switch bv.Typ {
		case vector.Float64:
			return math.Float64bits(av.F64[ai]) == math.Float64bits(bv.F64[bi])
		case vector.Int64, vector.Date:
			return intFloatEq(bv.I64[bi], av.F64[ai])
		}
	case vector.String:
		return av.Str[ai] == bv.Str[bi]
	case vector.Bool:
		return av.B[ai] == bv.B[bi]
	}
	return false
}

// intFloatEq reports whether float64 f equals int64 x exactly.
func intFloatEq(x int64, f float64) bool {
	return f == math.Trunc(f) && f >= minExactI64 && f < maxExactI64 && int64(f) == x
}

// keyRowsEqual compares the key columns of physical row ar of a against
// physical row br of b.
func keyRowsEqual(a *vector.Batch, ar int, acols []int, b *vector.Batch, br int, bcols []int) bool {
	for k, ac := range acols {
		if !valueEqual(a.Vecs[ac], ar, b.Vecs[bcols[k]], br) {
			return false
		}
	}
	return true
}

// oaTable is the shared open-addressing directory: a power-of-two bucket
// array of int32 heads (-1 = empty). The join chains rows through a
// parallel next array; the aggregate stores group ids and linear-probes.
// The bucket array comes from the pool and goes back in close.
type oaTable struct {
	buckets []int32
	mask    uint64
}

// init sizes the directory for n entries at load factor <= 1/2, all empty.
// An outgrown bucket array goes back to the pool for a pooled one.
func (t *oaTable) init(pool *vector.Pool, n int) {
	size := 16
	for size < n*2 {
		size <<= 1
	}
	if cap(t.buckets) < size {
		pool.I32.Put(t.buckets)
		t.buckets = pool.I32.Get(size)
	}
	t.buckets = t.buckets[:size]
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	t.mask = uint64(size - 1)
}

// close returns the bucket array to the pool.
func (t *oaTable) close(pool *vector.Pool) {
	pool.I32.Put(t.buckets)
	t.buckets = nil
}

// slot returns the home bucket index for hash h.
func (t *oaTable) slot(h uint64) uint64 { return h & t.mask }
