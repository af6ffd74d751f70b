package opt

import (
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

func testCat() *catalog.Catalog {
	cat := catalog.New()
	mk := func(name string, cols ...string) {
		sch := make(catalog.Schema, len(cols))
		for i, c := range cols {
			sch[i] = catalog.Column{Name: c, Typ: vector.Int64}
		}
		cat.AddTable(catalog.NewTable(name, sch))
	}
	mk("ta", "a1", "a2", "k")
	mk("tb", "b1", "b2", "k2")
	mk("tc", "c1", "k3")
	return cat
}

func canonOf(e expr.Expr) string { return string(e.AppendCanon(nil, expr.Ident)) }

// A conjunction over a join must split per side and sink each conjunct into
// a chain directly above its scan.
func TestNormalizePushesThroughJoin(t *testing.T) {
	cat := testCat()
	p := plan.NewSelect(
		plan.NewJoin(plan.Inner, plan.NewScan("ta"), plan.NewScan("tb"),
			[]string{"k"}, []string{"k2"}),
		expr.AndOf(
			expr.Gt(expr.C("a1"), expr.Int(5)),
			expr.Lt(expr.C("b1"), expr.Int(3))))
	n, err := Normalize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n.Op != plan.Join {
		t.Fatalf("root is %v, want the join (selects absorbed):\n%s", n.Op, n)
	}
	l, r := n.Children[0], n.Children[1]
	if l.Op != plan.Select || canonOf(l.Pred) != "(a1>5)" || l.Children[0].Op != plan.Scan {
		t.Fatalf("left conjunct not pushed:\n%s", n)
	}
	if r.Op != plan.Select || canonOf(r.Pred) != "(b1<3)" || r.Children[0].Op != plan.Scan {
		t.Fatalf("right conjunct not pushed:\n%s", n)
	}

	// Idempotent: normalizing the normalized tree changes nothing.
	before := n.String()
	n2, err := Normalize(n, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n2.String() != before {
		t.Fatalf("normalize not idempotent:\n%s\nvs\n%s", before, n2)
	}
}

// Conjuncts split into single-conjunct chains in canonical order:
// literal-free conjuncts innermost, then canonical-string order.
func TestNormalizeChainCanonicalOrder(t *testing.T) {
	cat := testCat()
	p := plan.NewSelect(plan.NewScan("ta"), expr.AndOf(
		expr.Gt(expr.C("a1"), expr.Int(5)),
		expr.Lt(expr.C("a1"), expr.C("a2")), // literal-free: innermost
		expr.Lt(expr.C("a2"), expr.Int(3))))
	n, err := Normalize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	var canons []string
	for cur := n; cur.Op == plan.Select; cur = cur.Children[0] {
		canons = append(canons, canonOf(cur.Pred))
	}
	// Outermost first when walking down.
	want := []string{"(a2<3)", "(a1>5)", "(a1<a2)"}
	if len(canons) != len(want) {
		t.Fatalf("chain length %d, want %d:\n%s", len(canons), len(want), n)
	}
	for i := range want {
		if canons[i] != want[i] {
			t.Fatalf("chain order %v, want %v", canons, want)
		}
	}
}

// A projection's unused columns disappear from the scan.
func TestNormalizePrunesScanColumns(t *testing.T) {
	cat := testCat()
	p := plan.NewProject(plan.NewScan("ta"), plan.P(expr.C("a1"), "a1"))
	n, err := Normalize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	scan := n.Children[0]
	if scan.Op != plan.Scan || len(scan.Cols) != 1 || scan.Cols[0] != "a1" {
		t.Fatalf("scan not pruned to a1:\n%s", n)
	}
	if len(n.Schema()) != 1 || n.Schema()[0].Name != "a1" {
		t.Fatalf("output schema changed: %v", n.Schema().Names())
	}
}

func chain3(cat *catalog.Catalog) *plan.Node {
	return plan.NewJoin(plan.Inner,
		plan.NewJoin(plan.Inner, plan.NewScan("ta"), plan.NewScan("tb"),
			[]string{"k"}, []string{"k2"}),
		plan.NewScan("tc"),
		[]string{"b2"}, []string{"k3"})
}

// With ta and tb tiny and tc huge, the DP must move tc to the probe (left)
// side instead of building a hash table over it, and — at an unpinned root —
// restore the written column order with an identity projection.
func TestOptimizeReordersJoinGroup(t *testing.T) {
	cat := testCat()
	rows := map[string]int64{"ta": 10, "tb": 1000, "tc": 1_000_000}
	p := chain3(cat)
	if err := p.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	orig := append([]string(nil), p.Schema().Names()...)

	n, err := Optimize(chain3(cat), &Context{Cat: cat, TableRows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if n.Op != plan.Project {
		t.Fatalf("reordered group root is %v, want order-restoring project:\n%s", n.Op, n)
	}
	got := n.Schema().Names()
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatalf("output order changed: %v, want %v", got, orig)
		}
	}
	join := n.Children[0]
	if join.Op != plan.Join {
		t.Fatalf("no join under the wrapper:\n%s", n)
	}
	leftLeaf := join.Children[0]
	for len(leftLeaf.Children) > 0 {
		leftLeaf = leftLeaf.Children[0]
	}
	if leftLeaf.Table != "tc" {
		t.Fatalf("big table %q not on probe side:\n%s", leftLeaf.Table, n)
	}
}

// Under a Limit the join order is frozen: reordering could change which N
// rows pass.
func TestOptimizeNoReorderUnderLimit(t *testing.T) {
	cat := testCat()
	rows := map[string]int64{"ta": 10, "tb": 1000, "tc": 1_000_000}
	n, err := Optimize(plan.NewLimit(chain3(cat), 5), &Context{Cat: cat, TableRows: rows})
	if err != nil {
		t.Fatal(err)
	}
	join := n.Children[0]
	if join.Op != plan.Join {
		t.Fatalf("limit child is %v, want untouched join:\n%s", join.Op, n)
	}
	leftLeaf := join.Children[0]
	for len(leftLeaf.Children) > 0 {
		leftLeaf = leftLeaf.Children[0]
	}
	if leftLeaf.Table != "ta" {
		t.Fatalf("join order changed under limit:\n%s", n)
	}
}

// Chain steering follows the recycler graph: when a past execution built
// the chain in a non-canonical order, new plans reproduce that order so the
// graph accretes one chain instead of permutations.
func TestOptimizeSteersChainToSeenOrder(t *testing.T) {
	cat := testCat()
	r := core.New(core.DefaultConfig())

	// Seed: a2<3 innermost — the opposite of canonical order.
	seed := plan.NewSelect(
		plan.NewSelect(plan.NewScan("ta"), expr.Lt(expr.C("a2"), expr.Int(3))),
		expr.Gt(expr.C("a1"), expr.Int(5)))
	if err := seed.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r.MatchInsert(seed)

	q := func() *plan.Node {
		return plan.NewSelect(plan.NewScan("ta"), expr.AndOf(
			expr.Gt(expr.C("a1"), expr.Int(5)),
			expr.Lt(expr.C("a2"), expr.Int(3))))
	}

	// No recycler to probe: costing is purely cold, canonical order stands.
	cold, err := Optimize(q(), &Context{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	if canonOf(cold.Pred) != "(a2<3)" || canonOf(cold.Children[0].Pred) != "(a1>5)" {
		t.Fatalf("canonical chain order unexpected:\n%s", cold)
	}

	warm, err := Optimize(q(), &Context{Cat: cat, Rec: r})
	if err != nil {
		t.Fatal(err)
	}
	if canonOf(warm.Pred) != "(a1>5)" || canonOf(warm.Children[0].Pred) != "(a2<3)" {
		t.Fatalf("steering did not follow the seen order:\n%s", warm)
	}
}

// Two enumerations of the same query against the same recycler state yield
// byte-identical plans.
func TestOptimizeDeterministic(t *testing.T) {
	cat := testCat()
	r := core.New(core.DefaultConfig())
	rows := map[string]int64{"ta": 10, "tb": 1000, "tc": 1_000_000}

	seed := plan.NewSelect(plan.NewScan("tb"), expr.Lt(expr.C("b1"), expr.Int(3)))
	if err := seed.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	r.MatchInsert(seed)

	mk := func() *plan.Node {
		return plan.NewSelect(chain3(cat), expr.AndOf(
			expr.Gt(expr.C("a1"), expr.Int(5)),
			expr.Lt(expr.C("b1"), expr.Int(3)),
			expr.Gt(expr.C("c1"), expr.Int(0))))
	}
	ctx := func() *Context {
		return &Context{Cat: cat, Rec: r, TableRows: rows}
	}
	a, err := Optimize(mk(), ctx())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(mk(), ctx())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("enumeration not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// Annotate marks a cached subtree and Render prints the marker.
func TestAnnotateRender(t *testing.T) {
	cat := testCat()
	r := core.New(core.DefaultConfig())
	seed := plan.NewSelect(plan.NewScan("ta"), expr.Gt(expr.C("a1"), expr.Int(5)))
	if err := seed.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	res := r.MatchInsert(seed)
	g := res.ByNode[seed].G
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Int64, vector.Int64}, 1)
	if !r.Admit(g, []*vector.Batch{b}, 1, 64, 0, -1) {
		t.Fatal("admit refused")
	}

	ctx := &Context{Cat: cat, Rec: r}
	p, err := Optimize(plan.NewSelect(plan.NewScan("ta"),
		expr.Gt(expr.C("a1"), expr.Int(5))), ctx)
	if err != nil {
		t.Fatal(err)
	}
	info := Annotate(p, ctx)
	ni, ok := info[p]
	if !ok || !ni.Cached {
		t.Fatalf("cached subtree not annotated: %+v\n%s", ni, Render(p, info))
	}
	out := Render(p, info)
	if want := "[cached]"; !containsStr(out, want) {
		t.Fatalf("render missing %q:\n%s", want, out)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestJoinEstimates pins the key-domain join estimate |L|·|R| / dom on the
// shapes that matter for build-side choice. Row counts are TPC-H sf 0.01's.
func TestJoinEstimates(t *testing.T) {
	cat := catalog.New()
	mk := func(name string, cols ...string) {
		sch := make(catalog.Schema, len(cols))
		for i, c := range cols {
			sch[i] = catalog.Column{Name: c, Typ: vector.Int64}
		}
		cat.AddTable(catalog.NewTable(name, sch))
	}
	mk("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate")
	mk("part", "p_partkey", "p_size")
	mk("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty")
	rows := map[string]int64{"lineitem": 60000, "part": 2000, "partsupp": 8000}
	li := func() *plan.Node {
		return plan.NewScan("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate")
	}
	// shipped is σ(l_shipdate < 100)(lineitem) with its columns renamed:
	// 60000 × 0.3 = 18000 rows.
	shipped := func(prefix string) *plan.Node {
		return plan.NewProject(plan.NewSelect(li(), expr.Lt(expr.C("l_shipdate"), expr.Int(100))),
			plan.P(expr.C("l_orderkey"), prefix+"orderkey"))
	}
	for _, tc := range []struct {
		name string
		p    *plan.Node
		want int64
	}{
		// 200 of 2000 parts survive; each matches its share of lineitem:
		// 60000 × 200 / 2000, not min(|L|,|R|) = 200.
		{"fk=pk, filtered pk side", plan.NewJoin(plan.Inner, li(),
			plan.NewSelect(plan.NewScan("part", "p_partkey", "p_size"),
				expr.Eq(expr.C("p_size"), expr.Int(5))),
			[]string{"l_partkey"}, []string{"p_partkey"}), 6000},
		// Both key pairs range over partsupp's 8000 rows: every lineitem
		// row finds its one (part, supplier) entry.
		{"composite key", plan.NewJoin(plan.Inner, li(),
			plan.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty"),
			[]string{"l_partkey", "l_suppkey"}, []string{"ps_partkey", "ps_suppkey"}), 60000},
		// The renamed group key ranges over the aggregate's 15000 groups.
		{"aggregate group key", plan.NewJoin(plan.Inner, li(),
			plan.NewProject(
				plan.NewAggregate(li(), []string{"l_partkey"},
					plan.A(plan.Avg, expr.C("l_quantity"), "avg_qty")),
				plan.P(expr.C("l_partkey"), "aq_partkey"),
				plan.P(expr.C("avg_qty"), "avg_qty")),
			[]string{"l_partkey"}, []string{"aq_partkey"}), 60000},
		// Both sides keep 18000 of lineitem's 60000 order keys.
		{"lineitem self-join", plan.NewJoin(plan.Inner, shipped("a_"), shipped("b_"),
			[]string{"a_orderkey"}, []string{"b_orderkey"}), 5400},
	} {
		if err := tc.p.Resolve(cat); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		co := newCoster(&Context{Cat: cat, TableRows: rows})
		if got := co.info(tc.p).Rows; got != tc.want {
			t.Errorf("%s: estimated %d rows, want %d", tc.name, got, tc.want)
		}
	}
}
