package exec

// Lockstep quick-checks for the type-specialized kernel layer: every
// compiled predicate kernel is exercised against the generic expr.Eval
// path on randomized batches salted with the adversarial values the
// kernels' tricks must survive — NaN and ±Inf, int64 magnitudes beyond
// 2^53, MinInt64/MaxInt64 range edges — across dense inputs, full, sparse
// and empty selection vectors. The stage-level tests then hold filter,
// aggregation and join-hash kernels to their references — expr.Eval, a
// row-at-a-time fold, hashColumns — on whole streams, and the steady-state
// zero-allocation contract on kernel and generic steps alike.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// adversarialI64 returns n int64s mixing small values around the typical
// constants with exact-range edges and beyond-2^53 magnitudes.
func adversarialI64(rng *rand.Rand, n int) []int64 {
	specials := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		0, 1, -1, 1 << 53, (1 << 53) + 1, -(1 << 53) - 1, 42,
	}
	out := make([]int64, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = specials[rng.Intn(len(specials))]
		case 1:
			out[i] = rng.Int63n(100) - 50
		default:
			out[i] = int64(rng.Uint64())
		}
	}
	return out
}

// adversarialF64 returns n float64s salted with NaN, ±Inf and signed zeros.
func adversarialF64(rng *rand.Rand, n int) []float64 {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, 42.5,
	}
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = specials[rng.Intn(len(specials))]
		case 1:
			out[i] = float64(rng.Intn(100) - 50)
		default:
			out[i] = rng.NormFloat64() * 1e6
		}
	}
	return out
}

// kernelTestVec builds a one-column batch of the given type and length.
func kernelTestVec(rng *rand.Rand, t vector.Type, n int) *vector.Vector {
	v := vector.New(t, n)
	switch t {
	case vector.Int64, vector.Date:
		v.I64 = adversarialI64(rng, n)
	case vector.Float64:
		v.F64 = adversarialF64(rng, n)
	case vector.String:
		for i := 0; i < n; i++ {
			v.Str = append(v.Str, fmt.Sprintf("tag-%d", rng.Intn(5)))
		}
	}
	return v
}

// genericSel evaluates pred over the batch with the generic tree walk and
// returns the surviving physical rows — the interpreter the kernels are
// held to.
func genericSel(t *testing.T, pred expr.Expr, b *vector.Batch) []int32 {
	t.Helper()
	flags := vector.New(vector.Bool, b.Len())
	if err := pred.Eval(b, flags); err != nil {
		t.Fatalf("generic eval: %v", err)
	}
	sel := []int32{}
	for i, ok := range flags.B[:b.Len()] {
		if ok {
			sel = append(sel, int32(b.RowIdx(i)))
		}
	}
	return sel
}

func selEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkKernelLockstep compiles pred to a kernel and checks dense, full-,
// sparse- and empty-selection evaluation against the generic path.
func checkKernelLockstep(t *testing.T, schema catalog.Schema, pred expr.Expr, v *vector.Vector) {
	t.Helper()
	if _, err := pred.Bind(schema); err != nil {
		t.Fatalf("bind: %v", err)
	}
	k := compilePred(pred)
	if k == nil {
		t.Fatalf("predicate %s did not compile to a kernel", pred.Canon(expr.Ident))
	}
	n := v.Len()
	dense := &vector.Batch{Vecs: []*vector.Vector{v}}

	want := genericSel(t, pred, dense)
	if got := k.dense(k, v, n, nil); !selEqual(got, want) {
		t.Fatalf("%s dense: kernel %d rows vs generic %d rows", pred.Canon(expr.Ident), len(got), len(want))
	}

	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i)
	}
	if got := k.refine(k, v, full); !selEqual(got, want) {
		t.Fatalf("%s full-sel refine diverged from generic", pred.Canon(expr.Ident))
	}

	sparse := make([]int32, 0, n/3+1)
	for i := 0; i < n; i += 3 {
		sparse = append(sparse, int32(i))
	}
	view := &vector.Batch{Vecs: []*vector.Vector{v}, Sel: append([]int32(nil), sparse...)}
	wantSparse := genericSel(t, pred, view)
	if got := k.refine(k, v, sparse); !selEqual(got, wantSparse) {
		t.Fatalf("%s sparse-sel refine diverged from generic", pred.Canon(expr.Ident))
	}

	if got := k.refine(k, v, []int32{}); len(got) != 0 {
		t.Fatalf("%s empty-sel refine produced %d rows", pred.Canon(expr.Ident), len(got))
	}
}

func TestPredKernelLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 257 // odd, above one unroll block
	ops := []struct {
		name string
		mk   func(l, r expr.Expr) expr.Expr
	}{
		{"eq", func(l, r expr.Expr) expr.Expr { return expr.Eq(l, r) }},
		{"ne", func(l, r expr.Expr) expr.Expr { return expr.Ne(l, r) }},
		{"lt", func(l, r expr.Expr) expr.Expr { return expr.Lt(l, r) }},
		{"le", func(l, r expr.Expr) expr.Expr { return expr.Le(l, r) }},
		{"gt", func(l, r expr.Expr) expr.Expr { return expr.Gt(l, r) }},
		{"ge", func(l, r expr.Expr) expr.Expr { return expr.Ge(l, r) }},
	}

	t.Run("int64-int-const", func(t *testing.T) {
		schema := catalog.Schema{{Name: "x", Typ: vector.Int64}}
		consts := []int64{0, 42, -50, math.MinInt64, math.MinInt64 + 1,
			math.MaxInt64, math.MaxInt64 - 1, 1 << 53, (1 << 53) + 1}
		for _, op := range ops {
			for _, c := range consts {
				v := kernelTestVec(rng, vector.Int64, n)
				checkKernelLockstep(t, schema, op.mk(expr.C("x"), expr.Int(c)), v)
				// Mirrored literal-first form normalizes to the same kernel.
				checkKernelLockstep(t, schema, op.mk(expr.Int(c), expr.C("x")), v)
			}
		}
	})

	t.Run("int64-float-const", func(t *testing.T) {
		// Int column promoted to float by the literal: the kernel must use
		// the same lossy float64(x) conversion as the generic coercion, so
		// beyond-2^53 columns agree on which side of the constant they fall.
		schema := catalog.Schema{{Name: "x", Typ: vector.Int64}}
		consts := []float64{0.5, -3, 42, 1e18, -1e18, math.NaN(), math.Inf(1), math.Inf(-1), float64(1 << 53)}
		for _, op := range ops {
			for _, c := range consts {
				v := kernelTestVec(rng, vector.Int64, n)
				checkKernelLockstep(t, schema, op.mk(expr.C("x"), expr.Flt(c)), v)
			}
		}
	})

	t.Run("float64", func(t *testing.T) {
		schema := catalog.Schema{{Name: "x", Typ: vector.Float64}}
		consts := []float64{0, -0.0, 42.5, -1e6, math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, op := range ops {
			for _, c := range consts {
				v := kernelTestVec(rng, vector.Float64, n)
				checkKernelLockstep(t, schema, op.mk(expr.C("x"), expr.Flt(c)), v)
			}
		}
		// Integer literal against a float column promotes the literal.
		for _, op := range ops {
			v := kernelTestVec(rng, vector.Float64, n)
			checkKernelLockstep(t, schema, op.mk(expr.C("x"), expr.Int(7)), v)
		}
	})

	t.Run("date", func(t *testing.T) {
		schema := catalog.Schema{{Name: "x", Typ: vector.Date}}
		for _, op := range ops {
			v := kernelTestVec(rng, vector.Date, n)
			checkKernelLockstep(t, schema, op.mk(expr.C("x"), expr.DateDays(10957)), v)
		}
	})

	t.Run("string", func(t *testing.T) {
		schema := catalog.Schema{{Name: "x", Typ: vector.String}}
		for _, c := range []string{"tag-2", "missing", ""} {
			v := kernelTestVec(rng, vector.String, n)
			checkKernelLockstep(t, schema, expr.Eq(expr.C("x"), expr.Str(c)), v)
			checkKernelLockstep(t, schema, expr.Ne(expr.C("x"), expr.Str(c)), v)
		}
	})
}

// TestKernelPairFusion checks the adjacent-conjunct fusion: a BETWEEN-style
// GE/LE pair (integer and float) must compile to one width-2 kernel whose
// survivors match evaluating both conjuncts generically, including empty
// ranges, which become constant-false kernels.
func TestKernelPairFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 300
	cases := []struct {
		name   string
		typ    vector.Type
		lo, hi expr.Expr
	}{
		{"int-range", vector.Int64, expr.Int(-10), expr.Int(1 << 54)},
		{"int-empty", vector.Int64, expr.Int(10), expr.Int(5)},
		{"int-edges", vector.Int64, expr.Int(math.MinInt64), expr.Int(math.MaxInt64)},
		{"float-range", vector.Float64, expr.Flt(-100), expr.Flt(1e6)},
		{"float-empty", vector.Float64, expr.Flt(5), expr.Flt(-5)},
		{"int-float-range", vector.Int64, expr.Flt(-0.5), expr.Flt(1e17)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schema := catalog.Schema{{Name: "x", Typ: tc.typ}}
			pred := expr.Between(expr.C("x"), tc.lo, tc.hi)
			if _, err := pred.Bind(schema); err != nil {
				t.Fatal(err)
			}
			conj := expr.Conjuncts(pred)
			if len(conj) != 2 {
				t.Fatalf("Between expanded to %d conjuncts, want 2", len(conj))
			}
			steps := compileSteps(conj)
			if len(steps) != 1 || steps[0].kern == nil {
				t.Fatalf("pair did not fuse: %d steps", len(steps))
			}
			k := steps[0].kern
			v := kernelTestVec(rng, tc.typ, n)
			b := &vector.Batch{Vecs: []*vector.Vector{v}}
			want := genericSel(t, pred, b)
			if got := k.dense(k, v, n, nil); !selEqual(got, want) {
				t.Fatalf("fused dense: kernel %d rows vs generic %d", len(got), len(want))
			}
			full := make([]int32, n)
			for i := range full {
				full[i] = int32(i)
			}
			if got := k.refine(k, v, full); !selEqual(got, want) {
				t.Fatal("fused refine diverged from generic")
			}
		})
	}
}

// TestFilterKernelsMatchGeneric proves a filter stage emits exactly the rows
// the interpreter selects — the whole predicate evaluated generically over
// the whole table — across single kernels, fused BETWEEN pairs, and mixed
// kernel/generic conjunct chains.
func TestFilterKernelsMatchGeneric(t *testing.T) {
	tab := benchTable(benchRows)
	snap := tab.Snapshot()
	whole := &vector.Batch{Vecs: []*vector.Vector{snap.Col(0), snap.Col(1), snap.Col(2), snap.Col(3)}}
	preds := []struct {
		pred    expr.Expr
		kernels int64 // conjuncts that must compile
	}{
		{expr.Lt(expr.C("id"), expr.Int(1000)), 1},
		{expr.Eq(expr.C("k"), expr.Int(7)), 1},
		{expr.Ne(expr.C("s"), expr.Str("tag-3")), 1},
		{expr.Ge(expr.C("v"), expr.Flt(500)), 1},
		{expr.Between(expr.C("v"), expr.Flt(100), expr.Flt(200)), 2},
		{expr.Between(expr.C("id"), expr.Int(100), expr.Int(5000)), 2},
		{expr.AndOf(expr.Lt(expr.C("k"), expr.Int(32)), expr.Gt(expr.C("v"), expr.Flt(250))), 2},
		// Mixed chain: the arithmetic conjunct stays generic.
		{expr.AndOf(expr.Lt(expr.C("k"), expr.Int(32)),
			expr.Gt(expr.Mul(expr.C("v"), expr.Flt(2)), expr.Flt(900))), 1},
	}
	for i, tc := range preds {
		oracle := tc.pred.Clone()
		if _, err := oracle.Bind(tab.Schema); err != nil {
			t.Fatal(err)
		}
		want := genericSel(t, oracle, whole)

		scan, _ := benchScan(tab)
		before := PredKernelsCompiled()
		f := pipeFilter(t, scan, tc.pred)
		if got := PredKernelsCompiled() - before; got != tc.kernels {
			t.Fatalf("pred %d: %d conjuncts compiled to kernels, want %d", i, got, tc.kernels)
		}
		res, err := Run(NewCtx(catalog.New()), f)
		if err != nil {
			t.Fatal(err)
		}
		got := collectI64(res, 0) // id == row position
		if len(got) != len(want) {
			t.Fatalf("pred %d: stage kept %d rows, interpreter %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != int64(want[j]) {
				t.Fatalf("pred %d row %d: stage id=%d vs interpreter id=%d", i, j, got[j], want[j])
			}
		}
		if len(got) == 0 || len(got) == benchRows {
			t.Fatalf("pred %d is degenerate (%d of %d rows); pick a selective one", i, len(got), benchRows)
		}
	}
}

// aggResultRows formats an aggregation result row-wise for comparison,
// preserving emission order.
func aggResultRows(res *catalog.Result) []string {
	var out []string
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			r := b.RowIdx(i)
			s := ""
			for _, v := range b.Vecs {
				switch v.Typ {
				case vector.Int64, vector.Date:
					s += fmt.Sprintf("%d|", v.I64[r])
				case vector.Float64:
					s += fmt.Sprintf("%x|", math.Float64bits(v.F64[r]))
				case vector.String:
					s += v.Str[r] + "|"
				case vector.Bool:
					s += fmt.Sprintf("%t|", v.B[r])
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// TestAggEmissionKernelsMatchGeneric proves the typed accumulator columns —
// batch-wise group resolution, one update loop per aggregate, bulk-copy
// emission — reproduce a row-at-a-time fold bit-for-bit (float sums compared
// by bit pattern) in first-occurrence group order, for every accumulator
// class, through both emission entry points.
func TestAggEmissionKernelsMatchGeneric(t *testing.T) {
	tab := benchTable(benchRows)
	scan, sschema := benchScan(tab)
	aggs := []AggExpr{
		{Func: plan.Count, Typ: vector.Int64},
		{Func: plan.Sum, Arg: expr.C("id"), Typ: vector.Int64},
		{Func: plan.Sum, Arg: expr.C("v"), Typ: vector.Float64},
		{Func: plan.Avg, Arg: expr.C("v"), Typ: vector.Float64},
		{Func: plan.Min, Arg: expr.C("v"), Typ: vector.Float64},
		{Func: plan.Max, Arg: expr.C("id"), Typ: vector.Int64},
		{Func: plan.Min, Arg: expr.C("s"), Typ: vector.String},
	}
	schema := catalog.Schema{
		{Name: "k", Typ: vector.Int64},
		{Name: "n", Typ: vector.Int64},
		{Name: "sid", Typ: vector.Int64},
		{Name: "sv", Typ: vector.Float64},
		{Name: "av", Typ: vector.Float64},
		{Name: "mv", Typ: vector.Float64},
		{Name: "mid", Typ: vector.Int64},
		{Name: "ms", Typ: vector.String},
	}
	for _, ag := range aggs {
		if ag.Arg != nil {
			if _, err := ag.Arg.Bind(sschema); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := pipeAgg(scan, []int{1}, aggs, schema)
	ctx := NewCtx(catalog.New())
	if err := h.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer h.Close(ctx)
	first, err := h.Next(ctx) // consumes the input, emits all 64 groups
	if err != nil {
		t.Fatal(err)
	}
	st := h.final
	if st.nGroups != 64 || first.Len() != 64 {
		t.Fatalf("groups = %d, emitted %d, want 64", st.nGroups, first.Len())
	}

	// The reference: the same input folded one row at a time.
	type fold struct {
		n, sid, mid int64
		sv, mv      float64
		ms          string
	}
	folds := map[int64]*fold{}
	var order []int64
	in, _ := benchScan(tab)
	res, err := Run(NewCtx(catalog.New()), in)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			r := b.RowIdx(i)
			id, k, v, s := b.Vecs[0].I64[r], b.Vecs[1].I64[r], b.Vecs[2].F64[r], b.Vecs[3].Str[r]
			f := folds[k]
			if f == nil {
				f = &fold{mv: v, mid: id, ms: s}
				folds[k] = f
				order = append(order, k)
			}
			f.n++
			f.sid += id
			f.sv += v
			f.mv = min(f.mv, v)
			f.mid = max(f.mid, id)
			f.ms = min(f.ms, s)
		}
	}
	want := vector.NewBatch(schema.Types(), len(order))
	for _, k := range order {
		f := folds[k]
		want.Vecs[0].AppendInt64(k)
		want.Vecs[1].AppendInt64(f.n)
		want.Vecs[2].AppendInt64(f.sid)
		want.Vecs[3].AppendFloat64(f.sv)
		want.Vecs[4].AppendFloat64(f.sv / float64(f.n))
		want.Vecs[5].AppendFloat64(f.mv)
		want.Vecs[6].AppendInt64(f.mid)
		want.Vecs[7].AppendString(f.ms)
	}
	wantRows := aggResultRows(&catalog.Result{Batches: []*vector.Batch{want}})

	byIndex := vector.NewBatch(schema.Types(), st.nGroups)
	idx := make([]int32, st.nGroups)
	for i := range idx {
		idx[i] = int32(i)
	}
	st.emitIndex(byIndex, idx)
	for name, got := range map[string]*vector.Batch{"emitRange": first, "emitIndex": byIndex} {
		gotRows := aggResultRows(&catalog.Result{Batches: []*vector.Batch{got}})
		for i := range wantRows {
			if gotRows[i] != wantRows[i] {
				t.Fatalf("%s group %d: columns %q vs row fold %q (emission order or value diverged)",
					name, i, gotRows[i], wantRows[i])
			}
		}
	}
}

// TestJoinFastHashMatchesGeneric proves the single-int64-key hash fast path
// produces the same joined stream as the canonical-form hashColumns,
// including keys beyond 2^53 where int/float hash unification matters.
func TestJoinFastHashMatchesGeneric(t *testing.T) {
	// A dedicated table whose key column carries adversarial magnitudes.
	tb := catalog.NewTable("jt", catalog.Schema{
		{Name: "key", Typ: vector.Int64},
		{Name: "pay", Typ: vector.Int64},
	})
	rng := rand.New(rand.NewSource(3))
	keys := adversarialI64(rng, 4096)
	w := tb.BeginWrite()
	app := w.Appender()
	for i, k := range keys {
		if i%7 == 0 {
			app.Int64(0, k) // raw adversarial magnitudes
		} else {
			app.Int64(0, k%257) // force collisions and repeats
		}
		app.Int64(1, int64(i))
		app.FinishRow()
	}
	w.Commit()
	run := func(fast bool) []string {
		left := NewTableScan(tb, []int{0, 1}, tb.Schema)
		right := NewTableScan(tb, []int{0, 1}, tb.Schema)
		out := append(append(catalog.Schema{}, tb.Schema...), tb.Schema...)
		before := FastHashEngaged()
		j := pipeJoin(plan.Inner, left, right, []int{0}, []int{0}, out)
		if FastHashEngaged() == before {
			t.Fatal("fast hash did not engage on a single-int64-key join")
		}
		j.builds[0].fastHash = fast // false: both sides hash through hashColumns
		res, err := Run(NewCtx(catalog.New()), j)
		if err != nil {
			t.Fatal(err)
		}
		return aggResultRows(res)
	}
	on, off := run(true), run(false)
	if len(on) != len(off) || len(on) == 0 {
		t.Fatalf("fast hash %d rows vs generic %d rows", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("row %d: fast hash %q vs generic %q", i, on[i], off[i])
		}
	}
}

// --- Zero-allocation contracts on the kernel paths ----------------------

// TestFilterKernelNextZeroAlloc holds a compiled-kernel filter step to the
// steady-state zero-allocation contract.
func TestFilterKernelNextZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	scan, _ := benchScan(tab)
	pred := expr.Between(expr.C("id"), expr.Int(0), expr.Int(benchRows/2))
	before := PredKernelsCompiled()
	f := pipeFilter(t, scan, pred)
	if PredKernelsCompiled() == before {
		t.Fatal("filter did not compile its predicate to kernels")
	}
	assertZeroAllocs(t, NewCtx(catalog.New()), f, 4, 100)
}

// TestFilterGenericNextZeroAlloc pins the generic fallback step — a shape no
// kernel matches — to the same contract.
func TestFilterGenericNextZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	scan, _ := benchScan(tab)
	pred := expr.Lt(expr.Mul(expr.C("id"), expr.Int(2)), expr.Int(benchRows))
	before := PredKernelsCompiled()
	f := pipeFilter(t, scan, pred)
	if PredKernelsCompiled() != before {
		t.Fatal("arithmetic comparison compiled to a kernel; pick an unmatched shape")
	}
	assertZeroAllocs(t, NewCtx(catalog.New()), f, 4, 100)
}

// TestAggEmitKernelZeroAlloc holds emission from the typed accumulator
// columns to zero steady-state allocations while it spans many batches.
func TestAggEmitKernelZeroAlloc(t *testing.T) {
	tab := benchTable(benchRows)
	scan, schema := benchScan(tab)
	sum := expr.C("v")
	if _, err := sum.Bind(schema); err != nil {
		t.Fatal(err)
	}
	h := pipeAgg(scan, []int{0}, []AggExpr{
		{Func: plan.Count, Typ: vector.Int64},
		{Func: plan.Sum, Arg: sum, Typ: vector.Float64},
	}, catalog.Schema{
		{Name: "id", Typ: vector.Int64},
		{Name: "n", Typ: vector.Int64},
		{Name: "sv", Typ: vector.Float64},
	})
	assertZeroAllocs(t, NewCtx(catalog.New()), h, 4, 100)
}
