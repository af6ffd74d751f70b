package rewrite

import (
	"testing"

	"recycledb/internal/exec"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

// These tests target the derivation machinery of subsume.go directly:
// replaying a subsuming cached result through a re-applied operator,
// projection, or re-aggregation.

func TestSelectChildReplaySubsumption(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	wide := func() *plan.Node {
		q := plan.NewSelect(plan.NewScan("t", "k", "grp", "v"),
			expr.Lt(expr.C("v"), expr.Flt(80)))
		if err := q.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return q
	}
	r1, _ := rw.Rewrite(wide())
	run(t, rw, r1)
	if r1.Committed() == 0 {
		t.Fatalf("wide selection not cached: %+v", r1)
	}
	// Narrower selection: derive by re-filtering the cached superset.
	narrow := plan.NewSelect(plan.NewScan("t", "k", "grp", "v"),
		expr.Lt(expr.C("v"), expr.Flt(40)))
	if err := narrow.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r3, _ := rw.Rewrite(narrow)
	if r3.SubsumptionReuses != 1 {
		t.Fatalf("expected child-replay subsumption: %+v", r3)
	}
	// The child (scan) carries the reuse decoration; the select re-runs.
	if d := r3.Decor[narrow.Children[0]]; d == nil || d.Reuse == nil {
		t.Fatal("scan child should replay the cached superset")
	}
	rows := run(t, rw, r3)
	// v < 40 over values 0..96 cycling: 40/97 of 5000 rows ~ 2061.
	if rows == 0 || rows >= 5000 {
		t.Fatalf("implausible derived row count %d", rows)
	}
	// Correctness against a fresh engine.
	rwOff, catOff := fixture(t, Off)
	narrow2 := plan.NewSelect(plan.NewScan("t", "k", "grp", "v"),
		expr.Lt(expr.C("v"), expr.Flt(40)))
	if err := narrow2.Resolve(catOff); err != nil {
		t.Fatal(err)
	}
	r4, _ := rwOff.Rewrite(narrow2)
	if want := run(t, rwOff, r4); want != rows {
		t.Fatalf("derived %d rows, want %d", rows, want)
	}
}

func TestAggColumnSubsumptionProjection(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	wide := func() *plan.Node {
		q := plan.NewAggregate(plan.NewScan("t", "grp", "v"), []string{"grp"},
			plan.A(plan.Sum, expr.C("v"), "s"),
			plan.A(plan.Min, expr.C("v"), "lo"),
			plan.A(plan.Max, expr.C("v"), "hi"))
		if err := q.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return q
	}
	r1, _ := rw.Rewrite(wide())
	run(t, rw, r1)
	if r1.Committed() == 0 {
		t.Fatal("wide aggregate not cached")
	}
	// A subset of the aggregates over the same grouping: pure projection.
	narrow := plan.NewAggregate(plan.NewScan("t", "grp", "v"), []string{"grp"},
		plan.A(plan.Max, expr.C("v"), "top"))
	if err := narrow.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r2, _ := rw.Rewrite(narrow)
	if r2.SubsumptionReuses != 1 {
		t.Fatalf("expected column subsumption: %+v", r2)
	}
	// The aggregate itself is replaced by a replay (no recomputation).
	if d := r2.Decor[narrow]; d == nil || d.Reuse == nil {
		t.Fatal("aggregate should be served by projection of the cached cube")
	}
	if rows := run(t, rw, r2); rows != 3 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestAggTupleSubsumptionReaggregation(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	// Fine groups (grp, v): 291 of them over 5000 rows, a result small
	// enough next to its input for speculation to store it.
	fine := func() *plan.Node {
		q := plan.NewAggregate(plan.NewScan("t", "grp", "k", "v"),
			[]string{"grp", "v"},
			plan.A(plan.Sum, expr.C("v"), "s"),
			plan.A(plan.Count, nil, "c"))
		if err := q.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return q
	}
	r1, _ := rw.Rewrite(fine())
	run(t, rw, r1)
	if r1.Committed() == 0 {
		t.Fatal("fine aggregate not cached")
	}
	coarse := plan.NewAggregate(plan.NewScan("t", "grp", "k", "v"),
		[]string{"grp"},
		plan.A(plan.Sum, expr.C("v"), "s"),
		plan.A(plan.Count, nil, "c"))
	if err := coarse.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r2, _ := rw.Rewrite(coarse)
	if r2.SubsumptionReuses != 1 {
		t.Fatalf("expected tuple subsumption: %+v", r2)
	}
	// The executed tree re-aggregates a Cached leaf.
	if r2.Exec.Op != plan.Aggregate || r2.Exec.Children[0].Op != plan.Cached {
		t.Fatalf("unexpected derivation shape:\n%s", r2.Exec)
	}
	rows := run(t, rw, r2)
	if rows != 3 {
		t.Fatalf("rows = %d", rows)
	}
	// count must re-aggregate as a sum of counts: total 5000.
	ctx := exec.NewCtx(cat)
	op, err := exec.Build(ctx, r2.Exec, r2.Decor, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range res.Batches {
		ci := res.Schema.ColIndex("c")
		for i := 0; i < b.Len(); i++ {
			total += b.Vecs[ci].I64[i]
		}
	}
	if total != 5000 {
		t.Fatalf("re-aggregated count = %d, want 5000", total)
	}
}

func TestTopNPrefixSubsumption(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	big := func() *plan.Node {
		q := plan.NewTopN(plan.NewScan("t", "k", "v"),
			[]plan.SortKey{{Col: "v", Desc: true}, {Col: "k"}}, 200)
		if err := q.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return q
	}
	r1, _ := rw.Rewrite(big())
	run(t, rw, r1)
	if r1.Committed() == 0 {
		t.Fatal("top-200 not cached")
	}
	small := plan.NewTopN(plan.NewScan("t", "k", "v"),
		[]plan.SortKey{{Col: "v", Desc: true}, {Col: "k"}}, 10)
	if err := small.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r2, _ := rw.Rewrite(small)
	if r2.SubsumptionReuses != 1 {
		t.Fatalf("expected top-N subsumption: %+v", r2)
	}
	if rows := run(t, rw, r2); rows != 10 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestProactiveCubeSelectionsDerivesCorrectly(t *testing.T) {
	rw, cat := fixture(t, Proactive)
	q := func(g string) *plan.Node {
		qq := plan.NewAggregate(
			plan.NewSelect(plan.NewScan("t", "grp", "k", "v"),
				expr.Eq(expr.C("grp"), expr.Str(g))),
			nil,
			plan.A(plan.Sum, expr.C("v"), "total"),
			plan.A(plan.Count, nil, "n"))
		if err := qq.Resolve(cat); err != nil {
			t.Fatal(err)
		}
		return qq
	}
	// Reference answer from OFF mode.
	rwOff, catOff := fixture(t, Off)
	ref := plan.NewAggregate(
		plan.NewSelect(plan.NewScan("t", "grp", "k", "v"),
			expr.Eq(expr.C("grp"), expr.Str("b"))),
		nil,
		plan.A(plan.Sum, expr.C("v"), "total"),
		plan.A(plan.Count, nil, "n"))
	if err := ref.Resolve(catOff); err != nil {
		t.Fatal(err)
	}
	rOff, _ := rwOff.Rewrite(ref)
	ctxOff := exec.NewCtx(catOff)
	opOff, _ := exec.Build(ctxOff, rOff.Exec, rOff.Decor, nil)
	resOff, err := exec.Run(ctxOff, opOff)
	if err != nil {
		t.Fatal(err)
	}
	wantN := resOff.Batches[0].Vecs[1].I64[0]

	// Trigger the rule until the cube variant executes, then check the
	// derived answer for a *different* parameter.
	for i := 0; i < 3; i++ {
		r, err := rw.Rewrite(q("a"))
		if err != nil {
			t.Fatal(err)
		}
		run(t, rw, r)
	}
	r, err := rw.Rewrite(q("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.ProactiveApplied {
		t.Fatalf("cube variant should be chosen by now: %+v", r)
	}
	ctx := exec.NewCtx(cat)
	op, _ := exec.Build(ctx, r.Exec, r.Decor, nil)
	res, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Batches[0].Vecs[1].I64[0]; got != wantN {
		t.Fatalf("cube-derived count = %d, want %d", got, wantN)
	}
}

func TestProactiveDisabledBelowPA(t *testing.T) {
	rw, cat := fixture(t, Speculative)
	q := plan.NewTopN(plan.NewScan("t", "k", "v"),
		[]plan.SortKey{{Col: "v", Desc: true}}, 10)
	if err := q.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r, _ := rw.Rewrite(q)
	if r.ProactiveApplied {
		t.Fatal("SPEC mode must not apply proactive rules")
	}
}
