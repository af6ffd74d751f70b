package exec

import (
	"math"

	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// Type-specialized predicate kernels.
//
// Kernels are how a conjunct compiles. When a fused pipe is built, its filter
// stages recognize hot conjunct shapes — `col <op> const` and
// `col BETWEEN lo AND hi` over int64/float64/date plus string equality — and
// compile them to direct column loops that refine the shared selection
// vector branch-free (unconditional index store, conditional advance), with
// bounds checks hoisted out of the inner loop. Everything else stays a
// generic expr.Eval tree walk — the real fallback for unmatched shapes, and
// the oracle the lockstep tests hold every kernel to — so kernels change
// *how* rows are judged, never *which* rows survive:
//
//   - int64/date columns compared against integer constants compile to one
//     unsigned range-containment test `uint64(x-lo) <= uint64(hi-lo)`, which
//     is two's-complement exact for every CmpOp (EQ is the [c,c] range, LT
//     is [MinInt64, c-1], and so on; empty ranges compile to a constant-false
//     kernel rather than a wrapped subtraction);
//   - float comparisons (float columns, or int columns promoted to float by
//     a float literal) reproduce the generic evaluator's NaN semantics
//     exactly: cmpMatch(op, compareF64(x, c)) decomposes into the three
//     outcomes x<c, x>c, and "neither" (which includes NaN on either side),
//     so each kernel is a precompiled (onLT, onEQ, onGT) outcome mask over
//     those two comparisons — EQ against NaN is true, exactly like the
//     generic path. An int column against a float literal converts each
//     element with float64(x), the same (lossy beyond 2^53) conversion the
//     generic coercion performs;
//   - string equality/inequality compares against the constant directly.
//
// Kernels are selected through kernelRegistry, keyed by (column type,
// comparison type, op), once per pipe build — filter stages dispatch
// through a precompiled function pointer per step, not a type switch per
// batch. Adjacent compiled conjuncts over the same column fuse further:
// integer ranges intersect, and a GE/LE float pair becomes one
// BETWEEN-style two-comparison kernel (expr.Between expands to exactly that
// conjunct pair).
//
// The kernel layer is invisible to the recycler: plan signatures never see
// kernels (they attach at build time under the same plan nodes), survivors
// are bit-identical by construction, and so are the row counts the stages
// report.

// kernelKind discriminates the compiled inner loops.
type kernelKind uint8

const (
	kFalse       kernelKind = iota // empty range: nothing survives
	kI64Range                      // uint64(x-lo) <= uint64(hi-lo)
	kI64NE                         // x != lo
	kF64Cmp                        // float outcome mask vs f1
	kF64Between                    // !(x<f1) && !(x>f2)
	kI64FCmp                       // float64(x) outcome mask vs f1
	kI64FBetween                   // !(float64(x)<f1) && !(float64(x)>f2)
	kStrCmp                        // (x == s) == eq
)

// predKernel is one compiled predicate: the column slot, the constants, and
// the refine/dense loops chosen from the registry at bind time.
type predKernel struct {
	col  int
	kind kernelKind

	lo, hi int64   // integer range
	f1, f2 float64 // float constants (f2: between upper bound)
	s      string  // string constant

	// Float outcome mask: the comparison outcomes (onEQ, onLT, onGT) for
	// which the predicate holds. This is exactly cmpMatch(op,
	// compareF64(x, c)).
	mask uint8

	eq bool // string: true for =, false for <>

	refine func(k *predKernel, v *vector.Vector, sel []int32) []int32
	dense  func(k *predKernel, v *vector.Vector, n int, buf []int32) []int32
}

// kernelKey identifies a registry entry: the physical column type, the
// promoted comparison type the generic evaluator would coerce to, and the
// normalized operator (column on the left).
type kernelKey struct {
	Col vector.Type
	Cmp vector.Type
	Op  expr.CmpOp
}

// kernelEntry compiles a shape's constant into a ready predKernel.
type kernelEntry struct {
	compile func(k *predKernel, c vector.Datum)
}

// kernelRegistry maps (type, op) to the specialized implementation. Shapes
// without an entry (bool columns, non-constant comparisons) stay generic.
var kernelRegistry = map[kernelKey]kernelEntry{}

func init() {
	ints := []vector.Type{vector.Int64, vector.Date}
	orderOps := []expr.CmpOp{expr.EQ, expr.LT, expr.LE, expr.GT, expr.GE}
	for _, ct := range ints {
		for _, kt := range ints {
			for _, op := range orderOps {
				op := op
				kernelRegistry[kernelKey{ct, kt, op}] = kernelEntry{
					compile: func(k *predKernel, c vector.Datum) { compileI64Range(k, op, c.I64) },
				}
			}
			kernelRegistry[kernelKey{ct, kt, expr.NE}] = kernelEntry{
				compile: func(k *predKernel, c vector.Datum) {
					k.kind, k.lo = kI64NE, c.I64
					k.refine, k.dense = refineI64NE, denseI64NE
				},
			}
		}
		for _, op := range []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE} {
			op := op
			kernelRegistry[kernelKey{ct, vector.Float64, op}] = kernelEntry{
				compile: func(k *predKernel, c vector.Datum) {
					k.kind, k.f1 = kI64FCmp, datumF64(c)
					k.mask = outcomeMask(op)
					k.refine, k.dense = refineI64FCmp, denseI64FCmp
				},
			}
		}
	}
	for _, op := range []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE} {
		op := op
		kernelRegistry[kernelKey{vector.Float64, vector.Float64, op}] = kernelEntry{
			compile: func(k *predKernel, c vector.Datum) {
				k.kind, k.f1 = kF64Cmp, datumF64(c)
				k.mask = outcomeMask(op)
				k.refine, k.dense = refineF64Cmp, denseF64Cmp
			},
		}
	}
	kernelRegistry[kernelKey{vector.String, vector.String, expr.EQ}] = kernelEntry{
		compile: func(k *predKernel, c vector.Datum) {
			k.kind, k.s, k.eq = kStrCmp, c.Str, true
			k.refine, k.dense = refineStrCmp, denseStrCmp
		},
	}
	kernelRegistry[kernelKey{vector.String, vector.String, expr.NE}] = kernelEntry{
		compile: func(k *predKernel, c vector.Datum) {
			k.kind, k.s, k.eq = kStrCmp, c.Str, false
			k.refine, k.dense = refineStrCmp, denseStrCmp
		},
	}
}

// datumF64 converts a numeric literal to the float the generic coercion
// would compare against (float64(i) for int/date literals — intentionally
// the same lossy conversion beyond 2^53).
func datumF64(d vector.Datum) float64 {
	if d.Typ == vector.Float64 {
		return d.F64
	}
	return float64(d.I64)
}

// The three outcomes of a float comparison, as bits of an outcome mask.
const (
	onEQ uint8 = 1 << iota // equal, or NaN involved (unordered)
	onLT
	onGT
)

// holds is 1 when mask accepts the outcome of comparing x with c, else 0,
// computed without a branch. The outcome is 0 for equal or unordered, 1
// for less, 2 for greater; masking it with 7 lets the compiler drop the
// out-of-range guard on the shift.
func holds(mask uint8, x, c float64) int {
	o := b2i(x < c) | b2i(x > c)<<1
	return int(mask >> (o & 7) & 1)
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a flag
// read, not a jump, so kernels can add a row's verdict to their output
// cursor instead of branching on it: with a data-dependent branch per row,
// a selective float filter spends most of its time in mispredictions.
func b2i(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// outcomeMask decomposes a CmpOp into which of the three compareF64 outcomes
// (less, equal-or-unordered, greater) satisfy it.
func outcomeMask(op expr.CmpOp) uint8 {
	switch op {
	case expr.EQ:
		return onEQ
	case expr.NE:
		return onLT | onGT
	case expr.LT:
		return onLT
	case expr.LE:
		return onLT | onEQ
	case expr.GT:
		return onGT
	case expr.GE:
		return onEQ | onGT
	}
	return 0
}

// compileI64Range lowers an integer order comparison to range containment.
// Empty ranges (x < MinInt64, x > MaxInt64) become constant-false kernels
// instead of wrapping the subtraction.
func compileI64Range(k *predKernel, op expr.CmpOp, c int64) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch op {
	case expr.EQ:
		lo, hi = c, c
	case expr.LT:
		if c == math.MinInt64 {
			setFalseKernel(k)
			return
		}
		hi = c - 1
	case expr.LE:
		hi = c
	case expr.GT:
		if c == math.MaxInt64 {
			setFalseKernel(k)
			return
		}
		lo = c + 1
	case expr.GE:
		lo = c
	}
	k.kind, k.lo, k.hi = kI64Range, lo, hi
	k.refine, k.dense = refineI64Range, denseI64Range
}

func setFalseKernel(k *predKernel) {
	k.kind = kFalse
	k.refine = refineFalse
	k.dense = denseFalse
}

// compilePred compiles one bound conjunct to a kernel, or nil when its shape
// is not specialized.
func compilePred(e expr.Expr) *predKernel {
	sh, ok := expr.Shape(e)
	if !ok {
		return nil
	}
	ent, ok := kernelRegistry[kernelKey{sh.ColTyp, sh.CmpTyp, sh.Op}]
	if !ok {
		return nil
	}
	k := &predKernel{col: sh.ColIdx}
	ent.compile(k, sh.Const)
	return k
}

// fuseKernelPair merges two adjacent compiled kernels over the same column
// into one pass when their conjunction is itself a kernel shape: integer
// ranges intersect, and a float GE/LE pair (the expr.Between expansion)
// becomes a two-comparison between kernel. Returns nil when the pair cannot
// fuse.
func fuseKernelPair(a, b *predKernel) *predKernel {
	if a.col != b.col {
		return nil
	}
	switch {
	case a.kind == kI64Range && b.kind == kI64Range:
		f := &predKernel{col: a.col}
		lo, hi := a.lo, a.hi
		if b.lo > lo {
			lo = b.lo
		}
		if b.hi < hi {
			hi = b.hi
		}
		if lo > hi {
			setFalseKernel(f)
			return f
		}
		f.kind, f.lo, f.hi = kI64Range, lo, hi
		f.refine, f.dense = refineI64Range, denseI64Range
		return f
	case a.kind == kF64Cmp && b.kind == kF64Cmp:
		if lo, hi, ok := betweenBounds(a, b); ok {
			f := &predKernel{col: a.col}
			f.kind, f.f1, f.f2 = kF64Between, lo, hi
			f.refine, f.dense = refineF64Between, denseF64Between
			return f
		}
	case a.kind == kI64FCmp && b.kind == kI64FCmp:
		if lo, hi, ok := betweenBounds(a, b); ok {
			f := &predKernel{col: a.col}
			f.kind, f.f1, f.f2 = kI64FBetween, lo, hi
			f.refine, f.dense = refineI64FBetween, denseI64FBetween
			return f
		}
	}
	return nil
}

// betweenBounds recognizes a GE/LE float pair in either order. GE is the
// mask onEQ|onGT, LE is onLT|onEQ; the fused test !(x<lo) && !(x>hi) is
// exactly the conjunction of the two masked comparisons, NaN included.
func betweenBounds(a, b *predKernel) (lo, hi float64, ok bool) {
	const ge, le = onEQ | onGT, onLT | onEQ
	switch {
	case a.mask == ge && b.mask == le:
		return a.f1, b.f1, true
	case a.mask == le && b.mask == ge:
		return b.f1, a.f1, true
	}
	return 0, 0, false
}

// filterStep is one unit of a compiled filter chain: either a predicate
// kernel or a generic conjunct (exactly one of the fields is set).
type filterStep struct {
	kern *predKernel
	pred expr.Expr
}

// compileSteps lowers bound conjuncts into a filter chain: each conjunct
// compiles to a predicate kernel when its shape is specialized, adjacent
// kernel pairs fuse, and every other conjunct stays a generic expr.Eval step
// (cloned, so each pipe owns its evaluation scratch). Compiled conjuncts
// count in rec's PredKernels.
func compileSteps(conjuncts []expr.Expr, rec *StmtRecord) []filterStep {
	steps := make([]filterStep, 0, len(conjuncts))
	for _, c := range conjuncts {
		k := compilePred(c)
		if k == nil {
			steps = append(steps, filterStep{pred: c.Clone()})
			continue
		}
		if rec != nil {
			rec.PredKernels.Add(1)
		}
		if n := len(steps); n > 0 && steps[n-1].kern != nil {
			if f := fuseKernelPair(steps[n-1].kern, k); f != nil {
				steps[n-1].kern = f
				continue
			}
		}
		steps = append(steps, filterStep{kern: k})
	}
	return steps
}

// --- Refine kernels (selective input) ----------------------------------
//
// All refine loops compact the selection in place with the branch-free
// store-then-advance idiom of vector.RefineSel: the write index never passes
// the read index, and the loop body has no data-dependent branch besides the
// conditional increment. A single comparison's increment compiles to a flag
// read; the float kernels, whose verdict takes two comparisons, add it as a
// computed 0 or 1 (holds, b2i) so it does too.

func refineFalse(k *predKernel, v *vector.Vector, sel []int32) []int32 { return sel[:0] }

func refineI64Range(k *predKernel, v *vector.Vector, sel []int32) []int32 {
	xs := v.I64
	lo, rng := k.lo, uint64(k.hi-k.lo)
	out := 0
	for _, r := range sel {
		x := xs[r]
		sel[out] = r
		if uint64(x-lo) <= rng {
			out++
		}
	}
	return sel[:out]
}

func refineI64NE(k *predKernel, v *vector.Vector, sel []int32) []int32 {
	xs := v.I64
	c := k.lo
	out := 0
	for _, r := range sel {
		x := xs[r]
		sel[out] = r
		if x != c {
			out++
		}
	}
	return sel[:out]
}

func refineF64Cmp(k *predKernel, v *vector.Vector, sel []int32) []int32 {
	xs := v.F64
	c, mask := k.f1, k.mask
	out := 0
	for _, r := range sel {
		sel[out] = r
		out += holds(mask, xs[r], c)
	}
	return sel[:out]
}

func refineF64Between(k *predKernel, v *vector.Vector, sel []int32) []int32 {
	xs := v.F64
	lo, hi := k.f1, k.f2
	out := 0
	for _, r := range sel {
		x := xs[r]
		sel[out] = r
		out += int(b2i(!(x < lo)) & b2i(!(x > hi)))
	}
	return sel[:out]
}

func refineI64FCmp(k *predKernel, v *vector.Vector, sel []int32) []int32 {
	xs := v.I64
	c, mask := k.f1, k.mask
	out := 0
	for _, r := range sel {
		sel[out] = r
		out += holds(mask, float64(xs[r]), c)
	}
	return sel[:out]
}

func refineI64FBetween(k *predKernel, v *vector.Vector, sel []int32) []int32 {
	xs := v.I64
	lo, hi := k.f1, k.f2
	out := 0
	for _, r := range sel {
		x := float64(xs[r])
		sel[out] = r
		out += int(b2i(!(x < lo)) & b2i(!(x > hi)))
	}
	return sel[:out]
}

func refineStrCmp(k *predKernel, v *vector.Vector, sel []int32) []int32 {
	xs := v.Str
	c, eq := k.s, k.eq
	out := 0
	for _, r := range sel {
		m := xs[r] == c
		sel[out] = r
		if m == eq {
			out++
		}
	}
	return sel[:out]
}

// --- Dense kernels (no incoming selection) ------------------------------
//
// Dense loops build the selection from scratch into buf (grown once up
// front, so the loop is an indexed store over a slice of known length). The
// caller attaches the result only when rows were dropped, preserving the
// dense flow-through behavior of the generic path.

func kernelSelBuf(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func denseFalse(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	return kernelSelBuf(buf, n)[:0]
}

func denseI64Range(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	xs := v.I64[:n]
	buf = kernelSelBuf(buf, n)
	lo, rng := k.lo, uint64(k.hi-k.lo)
	out := 0
	for i, x := range xs {
		buf[out] = int32(i)
		if uint64(x-lo) <= rng {
			out++
		}
	}
	return buf[:out]
}

func denseI64NE(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	xs := v.I64[:n]
	buf = kernelSelBuf(buf, n)
	c := k.lo
	out := 0
	for i, x := range xs {
		buf[out] = int32(i)
		if x != c {
			out++
		}
	}
	return buf[:out]
}

func denseF64Cmp(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	xs := v.F64[:n]
	buf = kernelSelBuf(buf, n)
	c, mask := k.f1, k.mask
	out := 0
	for i, x := range xs {
		buf[out] = int32(i)
		out += holds(mask, x, c)
	}
	return buf[:out]
}

func denseF64Between(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	xs := v.F64[:n]
	buf = kernelSelBuf(buf, n)
	lo, hi := k.f1, k.f2
	out := 0
	for i, x := range xs {
		buf[out] = int32(i)
		out += int(b2i(!(x < lo)) & b2i(!(x > hi)))
	}
	return buf[:out]
}

func denseI64FCmp(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	xs := v.I64[:n]
	buf = kernelSelBuf(buf, n)
	c, mask := k.f1, k.mask
	out := 0
	for i, ix := range xs {
		buf[out] = int32(i)
		out += holds(mask, float64(ix), c)
	}
	return buf[:out]
}

func denseI64FBetween(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	xs := v.I64[:n]
	buf = kernelSelBuf(buf, n)
	lo, hi := k.f1, k.f2
	out := 0
	for i, ix := range xs {
		x := float64(ix)
		buf[out] = int32(i)
		out += int(b2i(!(x < lo)) & b2i(!(x > hi)))
	}
	return buf[:out]
}

func denseStrCmp(k *predKernel, v *vector.Vector, n int, buf []int32) []int32 {
	xs := v.Str[:n]
	buf = kernelSelBuf(buf, n)
	c, eq := k.s, k.eq
	out := 0
	for i := range xs {
		m := xs[i] == c
		buf[out] = int32(i)
		if m == eq {
			out++
		}
	}
	return buf[:out]
}
