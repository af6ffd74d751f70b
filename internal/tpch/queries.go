package tpch

import (
	"fmt"
	"time"

	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// All 22 TPC-H query patterns as optimized plan trees over the engine's
// operator algebra. Correlated subqueries are decorrelated into aggregate +
// join shapes and scalar subqueries become singleton cross joins, i.e. the
// trees the recycler would receive from an optimizer. COUNT(DISTINCT x) is
// expressed as a two-level aggregation.

// Build returns the plan for parameter set p.
func Build(p Params) *plan.Node {
	switch p.Q {
	case 1:
		return Q1(p)
	case 2:
		return Q2(p)
	case 3:
		return Q3(p)
	case 4:
		return Q4(p)
	case 5:
		return Q5(p)
	case 6:
		return Q6(p)
	case 7:
		return Q7(p)
	case 8:
		return Q8(p)
	case 9:
		return Q9(p)
	case 10:
		return Q10(p)
	case 11:
		return Q11(p)
	case 12:
		return Q12(p)
	case 13:
		return Q13(p)
	case 14:
		return Q14(p)
	case 15:
		return Q15(p)
	case 16:
		return Q16(p)
	case 17:
		return Q17(p)
	case 18:
		return Q18(p)
	case 19:
		return Q19(p)
	case 20:
		return Q20(p)
	case 21:
		return Q21(p)
	case 22:
		return Q22(p)
	}
	panic(fmt.Sprintf("tpch: unknown query %d", p.Q))
}

// BuildPA returns the plan variant used in proactive mode: Q16 uses the
// manually hoisted selection shape (the paper simulated the proactive rules
// by manually altering the plans of Q1, Q16 and Q19; Q1 and Q19 already
// expose the aggregate-over-selection pattern the automatic rules fire on).
func BuildPA(p Params) *plan.Node {
	if p.Q == 16 {
		return Q16PA(p)
	}
	return Build(p)
}

func revenue() expr.Expr {
	return expr.Mul(expr.C("l_extendedprice"), expr.Sub(expr.Flt(1), expr.C("l_discount")))
}

func addMonths(days int64, months int) int64 {
	t := time.Unix(days*86400, 0).UTC().AddDate(0, months, 0)
	return t.Unix() / 86400
}

func addYears(days int64, years int) int64 {
	t := time.Unix(days*86400, 0).UTC().AddDate(years, 0, 0)
	return t.Unix() / 86400
}

// AddYears shifts a day-epoch date by whole years (for callers outside this
// package that rebuild a query's date window from Params: the benchmark's
// SQL workloads and the harness's permuted-conjunct mix).
func AddYears(days int64, years int) int64 { return addYears(days, years) }

func dd(days int64) *expr.Lit { return expr.DateDays(days) }

// Q1: pricing summary report.
func Q1(p Params) *plan.Node {
	sel := plan.NewSelect(
		plan.NewScan("lineitem", "l_returnflag", "l_linestatus", "l_quantity",
			"l_extendedprice", "l_discount", "l_tax", "l_shipdate"),
		expr.Le(expr.C("l_shipdate"), dd(p.Date)))
	agg := plan.NewAggregate(sel, []string{"l_returnflag", "l_linestatus"},
		plan.A(plan.Sum, expr.C("l_quantity"), "sum_qty"),
		plan.A(plan.Sum, expr.C("l_extendedprice"), "sum_base_price"),
		plan.A(plan.Sum, revenue(), "sum_disc_price"),
		plan.A(plan.Sum, expr.Mul(revenue(), expr.Add(expr.Flt(1), expr.C("l_tax"))), "sum_charge"),
		plan.A(plan.Avg, expr.C("l_quantity"), "avg_qty"),
		plan.A(plan.Avg, expr.C("l_extendedprice"), "avg_price"),
		plan.A(plan.Avg, expr.C("l_discount"), "avg_disc"),
		plan.A(plan.Count, nil, "count_order"),
	)
	return plan.NewSort(agg, plan.SortKey{Col: "l_returnflag"}, plan.SortKey{Col: "l_linestatus"})
}

// suppliersInRegion joins supplier with the nations of one region.
func suppliersInRegion(region string) *plan.Node {
	nat := plan.NewJoin(plan.Inner,
		plan.NewScan("nation", "n_nationkey", "n_name", "n_regionkey"),
		plan.NewSelect(plan.NewScan("region", "r_regionkey", "r_name"),
			expr.Eq(expr.C("r_name"), expr.Str(region))),
		[]string{"n_regionkey"}, []string{"r_regionkey"})
	natP := plan.NewProject(nat,
		plan.P(expr.C("n_nationkey"), "n_nationkey"),
		plan.P(expr.C("n_name"), "n_name"))
	return plan.NewJoin(plan.Inner,
		plan.NewScan("supplier", "s_suppkey", "s_name", "s_nationkey", "s_acctbal"),
		natP, []string{"s_nationkey"}, []string{"n_nationkey"})
}

// Q2: minimum cost supplier.
func Q2(p Params) *plan.Node {
	parts := plan.NewSelect(
		plan.NewScan("part", "p_partkey", "p_size", "p_type"),
		expr.AndOf(
			expr.Eq(expr.C("p_size"), expr.Int(p.Int1)),
			expr.LikeOf(expr.C("p_type"), "%"+p.Str1)))
	ps := plan.NewJoin(plan.Inner,
		plan.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost"),
		suppliersInRegion(p.Str2),
		[]string{"ps_suppkey"}, []string{"s_suppkey"})
	minc := plan.NewProject(
		plan.NewAggregate(ps.Clone(), []string{"ps_partkey"},
			plan.A(plan.Min, expr.C("ps_supplycost"), "min_cost")),
		plan.P(expr.C("ps_partkey"), "mc_partkey"),
		plan.P(expr.C("min_cost"), "min_cost"))
	j1 := plan.NewJoin(plan.Inner, ps, parts,
		[]string{"ps_partkey"}, []string{"p_partkey"})
	j2 := plan.NewJoin(plan.Inner, j1, minc,
		[]string{"ps_partkey", "ps_supplycost"}, []string{"mc_partkey", "min_cost"})
	top := plan.NewTopN(j2, []plan.SortKey{
		{Col: "s_acctbal", Desc: true}, {Col: "n_name"}, {Col: "s_name"}, {Col: "p_partkey"},
	}, 100)
	return plan.NewProject(top,
		plan.P(expr.C("s_acctbal"), "s_acctbal"),
		plan.P(expr.C("s_name"), "s_name"),
		plan.P(expr.C("n_name"), "n_name"),
		plan.P(expr.C("p_partkey"), "p_partkey"))
}

// Q3: shipping priority.
func Q3(p Params) *plan.Node {
	cust := plan.NewSelect(plan.NewScan("customer", "c_custkey", "c_mktsegment"),
		expr.Eq(expr.C("c_mktsegment"), expr.Str(p.Str1)))
	ord := plan.NewSelect(
		plan.NewScan("orders", "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"),
		expr.Lt(expr.C("o_orderdate"), dd(p.Date)))
	li := plan.NewSelect(
		plan.NewScan("lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"),
		expr.Gt(expr.C("l_shipdate"), dd(p.Date)))
	j := plan.NewJoin(plan.Inner, li,
		plan.NewJoin(plan.Inner, ord, cust, []string{"o_custkey"}, []string{"c_custkey"}),
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	agg := plan.NewAggregate(j, []string{"l_orderkey", "o_orderdate", "o_shippriority"},
		plan.A(plan.Sum, revenue(), "revenue"))
	return plan.NewTopN(agg, []plan.SortKey{
		{Col: "revenue", Desc: true}, {Col: "o_orderdate"},
	}, 10)
}

// Q4: order priority checking.
func Q4(p Params) *plan.Node {
	ord := plan.NewSelect(
		plan.NewScan("orders", "o_orderkey", "o_orderdate", "o_orderpriority"),
		expr.AndOf(
			expr.Ge(expr.C("o_orderdate"), dd(p.Date)),
			expr.Lt(expr.C("o_orderdate"), dd(addMonths(p.Date, 3)))))
	li := plan.NewSelect(
		plan.NewScan("lineitem", "l_orderkey", "l_commitdate", "l_receiptdate"),
		expr.Lt(expr.C("l_commitdate"), expr.C("l_receiptdate")))
	semi := plan.NewJoin(plan.LeftSemi, ord, li,
		[]string{"o_orderkey"}, []string{"l_orderkey"})
	agg := plan.NewAggregate(semi, []string{"o_orderpriority"},
		plan.A(plan.Count, nil, "order_count"))
	return plan.NewSort(agg, plan.SortKey{Col: "o_orderpriority"})
}

// Q5: local supplier volume.
func Q5(p Params) *plan.Node {
	li := plan.NewJoin(plan.Inner,
		plan.NewScan("lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"),
		suppliersInRegion(p.Str1),
		[]string{"l_suppkey"}, []string{"s_suppkey"})
	ord := plan.NewSelect(
		plan.NewScan("orders", "o_orderkey", "o_custkey", "o_orderdate"),
		expr.AndOf(
			expr.Ge(expr.C("o_orderdate"), dd(p.Date)),
			expr.Lt(expr.C("o_orderdate"), dd(addYears(p.Date, 1)))))
	j := plan.NewJoin(plan.Inner, li, ord, []string{"l_orderkey"}, []string{"o_orderkey"})
	jc := plan.NewJoin(plan.Inner, j,
		plan.NewScan("customer", "c_custkey", "c_nationkey"),
		[]string{"o_custkey"}, []string{"c_custkey"})
	fil := plan.NewSelect(jc, expr.Eq(expr.C("c_nationkey"), expr.C("s_nationkey")))
	proj := plan.NewProject(fil,
		plan.P(expr.C("n_name"), "n_name"),
		plan.P(revenue(), "volume"))
	agg := plan.NewAggregate(proj, []string{"n_name"},
		plan.A(plan.Sum, expr.C("volume"), "revenue"))
	return plan.NewSort(agg, plan.SortKey{Col: "revenue", Desc: true})
}

// Q6: forecasting revenue change.
func Q6(p Params) *plan.Node {
	sel := plan.NewSelect(
		plan.NewScan("lineitem", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"),
		expr.AndOf(
			expr.Ge(expr.C("l_shipdate"), dd(p.Date)),
			expr.Lt(expr.C("l_shipdate"), dd(addYears(p.Date, 1))),
			expr.Ge(expr.C("l_discount"), expr.Flt(p.Float1-0.011)),
			expr.Le(expr.C("l_discount"), expr.Flt(p.Float1+0.011)),
			expr.Lt(expr.C("l_quantity"), expr.Int(p.Int1))))
	return plan.NewAggregate(sel, nil,
		plan.A(plan.Sum, expr.Mul(expr.C("l_extendedprice"), expr.C("l_discount")), "revenue"))
}

// Q7: volume shipping.
func Q7(p Params) *plan.Node {
	n1 := plan.NewProject(plan.NewScan("nation", "n_nationkey", "n_name"),
		plan.P(expr.C("n_nationkey"), "n1_key"),
		plan.P(expr.C("n_name"), "supp_nation"))
	n2 := plan.NewProject(plan.NewScan("nation", "n_nationkey", "n_name"),
		plan.P(expr.C("n_nationkey"), "n2_key"),
		plan.P(expr.C("n_name"), "cust_nation"))
	sup := plan.NewJoin(plan.Inner,
		plan.NewScan("supplier", "s_suppkey", "s_nationkey"), n1,
		[]string{"s_nationkey"}, []string{"n1_key"})
	li := plan.NewSelect(
		plan.NewScan("lineitem", "l_orderkey", "l_suppkey", "l_extendedprice",
			"l_discount", "l_shipdate"),
		expr.Between(expr.C("l_shipdate"),
			expr.DateLit("1995-01-01"), expr.DateLit("1996-12-31")))
	j1 := plan.NewJoin(plan.Inner, li, sup, []string{"l_suppkey"}, []string{"s_suppkey"})
	cust := plan.NewJoin(plan.Inner,
		plan.NewScan("customer", "c_custkey", "c_nationkey"), n2,
		[]string{"c_nationkey"}, []string{"n2_key"})
	ord := plan.NewJoin(plan.Inner,
		plan.NewScan("orders", "o_orderkey", "o_custkey"), cust,
		[]string{"o_custkey"}, []string{"c_custkey"})
	j2 := plan.NewJoin(plan.Inner, j1, ord, []string{"l_orderkey"}, []string{"o_orderkey"})
	fil := plan.NewSelect(j2, expr.OrOf(
		expr.AndOf(
			expr.Eq(expr.C("supp_nation"), expr.Str(p.Str1)),
			expr.Eq(expr.C("cust_nation"), expr.Str(p.Str2))),
		expr.AndOf(
			expr.Eq(expr.C("supp_nation"), expr.Str(p.Str2)),
			expr.Eq(expr.C("cust_nation"), expr.Str(p.Str1)))))
	proj := plan.NewProject(fil,
		plan.P(expr.C("supp_nation"), "supp_nation"),
		plan.P(expr.C("cust_nation"), "cust_nation"),
		plan.P(expr.YearOf(expr.C("l_shipdate")), "l_year"),
		plan.P(revenue(), "volume"))
	agg := plan.NewAggregate(proj, []string{"supp_nation", "cust_nation", "l_year"},
		plan.A(plan.Sum, expr.C("volume"), "revenue"))
	return plan.NewSort(agg,
		plan.SortKey{Col: "supp_nation"}, plan.SortKey{Col: "cust_nation"},
		plan.SortKey{Col: "l_year"})
}

// Q8: national market share.
func Q8(p Params) *plan.Node {
	parts := plan.NewSelect(plan.NewScan("part", "p_partkey", "p_type"),
		expr.Eq(expr.C("p_type"), expr.Str(p.Str3)))
	li := plan.NewJoin(plan.Inner,
		plan.NewScan("lineitem", "l_orderkey", "l_partkey", "l_suppkey",
			"l_extendedprice", "l_discount"),
		parts, []string{"l_partkey"}, []string{"p_partkey"})
	n2 := plan.NewProject(plan.NewScan("nation", "n_nationkey", "n_name"),
		plan.P(expr.C("n_nationkey"), "n2_key"),
		plan.P(expr.C("n_name"), "nation2"))
	sup := plan.NewJoin(plan.Inner,
		plan.NewScan("supplier", "s_suppkey", "s_nationkey"), n2,
		[]string{"s_nationkey"}, []string{"n2_key"})
	j1 := plan.NewJoin(plan.Inner, li, sup, []string{"l_suppkey"}, []string{"s_suppkey"})
	ord := plan.NewSelect(plan.NewScan("orders", "o_orderkey", "o_custkey", "o_orderdate"),
		expr.Between(expr.C("o_orderdate"),
			expr.DateLit("1995-01-01"), expr.DateLit("1996-12-31")))
	j2 := plan.NewJoin(plan.Inner, j1, ord, []string{"l_orderkey"}, []string{"o_orderkey"})
	// Customers restricted to the region.
	natr := plan.NewJoin(plan.Inner,
		plan.NewScan("nation", "n_nationkey", "n_regionkey"),
		plan.NewSelect(plan.NewScan("region", "r_regionkey", "r_name"),
			expr.Eq(expr.C("r_name"), expr.Str(p.Str2))),
		[]string{"n_regionkey"}, []string{"r_regionkey"})
	natrP := plan.NewProject(natr, plan.P(expr.C("n_nationkey"), "nr_key"))
	cust := plan.NewJoin(plan.Inner,
		plan.NewScan("customer", "c_custkey", "c_nationkey"), natrP,
		[]string{"c_nationkey"}, []string{"nr_key"})
	j3 := plan.NewJoin(plan.Inner, j2, cust, []string{"o_custkey"}, []string{"c_custkey"})
	proj := plan.NewProject(j3,
		plan.P(expr.YearOf(expr.C("o_orderdate")), "o_year"),
		plan.P(revenue(), "volume"),
		plan.P(expr.C("nation2"), "nation2"))
	agg := plan.NewAggregate(proj, []string{"o_year"},
		plan.A(plan.Sum, expr.CaseWhen(
			expr.Eq(expr.C("nation2"), expr.Str(p.Str1)),
			expr.C("volume"), expr.Flt(0)), "mkt"),
		plan.A(plan.Sum, expr.C("volume"), "total"))
	share := plan.NewProject(agg,
		plan.P(expr.C("o_year"), "o_year"),
		plan.P(expr.Div(expr.C("mkt"), expr.C("total")), "mkt_share"))
	return plan.NewSort(share, plan.SortKey{Col: "o_year"})
}

// Q9: product type profit measure.
func Q9(p Params) *plan.Node {
	parts := plan.NewSelect(plan.NewScan("part", "p_partkey", "p_name"),
		expr.LikeOf(expr.C("p_name"), "%"+p.Str1+"%"))
	li := plan.NewJoin(plan.Inner,
		plan.NewScan("lineitem", "l_orderkey", "l_partkey", "l_suppkey",
			"l_quantity", "l_extendedprice", "l_discount"),
		parts, []string{"l_partkey"}, []string{"p_partkey"})
	sup := plan.NewJoin(plan.Inner,
		plan.NewScan("supplier", "s_suppkey", "s_nationkey"),
		plan.NewScan("nation", "n_nationkey", "n_name"),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	j1 := plan.NewJoin(plan.Inner, li, sup, []string{"l_suppkey"}, []string{"s_suppkey"})
	j2 := plan.NewJoin(plan.Inner, j1,
		plan.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost"),
		[]string{"l_partkey", "l_suppkey"}, []string{"ps_partkey", "ps_suppkey"})
	j3 := plan.NewJoin(plan.Inner, j2,
		plan.NewScan("orders", "o_orderkey", "o_orderdate"),
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	proj := plan.NewProject(j3,
		plan.P(expr.C("n_name"), "nation"),
		plan.P(expr.YearOf(expr.C("o_orderdate")), "o_year"),
		plan.P(expr.Sub(revenue(),
			expr.Mul(expr.C("ps_supplycost"), expr.C("l_quantity"))), "amount"))
	agg := plan.NewAggregate(proj, []string{"nation", "o_year"},
		plan.A(plan.Sum, expr.C("amount"), "sum_profit"))
	return plan.NewSort(agg,
		plan.SortKey{Col: "nation"}, plan.SortKey{Col: "o_year", Desc: true})
}

// Q10: returned item reporting.
func Q10(p Params) *plan.Node {
	ord := plan.NewSelect(
		plan.NewScan("orders", "o_orderkey", "o_custkey", "o_orderdate"),
		expr.AndOf(
			expr.Ge(expr.C("o_orderdate"), dd(p.Date)),
			expr.Lt(expr.C("o_orderdate"), dd(addMonths(p.Date, 3)))))
	li := plan.NewSelect(
		plan.NewScan("lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"),
		expr.Eq(expr.C("l_returnflag"), expr.Str("R")))
	j1 := plan.NewJoin(plan.Inner, li, ord, []string{"l_orderkey"}, []string{"o_orderkey"})
	j2 := plan.NewJoin(plan.Inner, j1,
		plan.NewScan("customer", "c_custkey", "c_name", "c_acctbal", "c_phone", "c_nationkey"),
		[]string{"o_custkey"}, []string{"c_custkey"})
	j3 := plan.NewJoin(plan.Inner, j2,
		plan.NewScan("nation", "n_nationkey", "n_name"),
		[]string{"c_nationkey"}, []string{"n_nationkey"})
	agg := plan.NewAggregate(j3,
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name"},
		plan.A(plan.Sum, revenue(), "revenue"))
	return plan.NewTopN(agg, []plan.SortKey{{Col: "revenue", Desc: true}}, 20)
}

// Q11: important stock identification.
func Q11(p Params) *plan.Node {
	base := plan.NewProject(
		plan.NewJoin(plan.Inner,
			plan.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"),
			plan.NewJoin(plan.Inner,
				plan.NewScan("supplier", "s_suppkey", "s_nationkey"),
				plan.NewSelect(plan.NewScan("nation", "n_nationkey", "n_name"),
					expr.Eq(expr.C("n_name"), expr.Str(p.Str1))),
				[]string{"s_nationkey"}, []string{"n_nationkey"}),
			[]string{"ps_suppkey"}, []string{"s_suppkey"}),
		plan.P(expr.C("ps_partkey"), "ps_partkey"),
		plan.P(expr.Mul(expr.C("ps_supplycost"), expr.C("ps_availqty")), "value"))
	grp := plan.NewAggregate(base, []string{"ps_partkey"},
		plan.A(plan.Sum, expr.C("value"), "value"))
	tot := plan.NewProject(
		plan.NewAggregate(base.Clone(), nil, plan.A(plan.Sum, expr.C("value"), "total")),
		plan.P(expr.Mul(expr.C("total"), expr.Flt(p.Float1)), "threshold"))
	cross := plan.NewJoin(plan.Inner, grp, tot, nil, nil)
	fil := plan.NewSelect(cross, expr.Gt(expr.C("value"), expr.C("threshold")))
	proj := plan.NewProject(fil,
		plan.P(expr.C("ps_partkey"), "ps_partkey"),
		plan.P(expr.C("value"), "value"))
	return plan.NewSort(proj, plan.SortKey{Col: "value", Desc: true})
}

// Q12: shipping modes and order priority.
func Q12(p Params) *plan.Node {
	li := plan.NewSelect(
		plan.NewScan("lineitem", "l_orderkey", "l_shipmode", "l_shipdate",
			"l_commitdate", "l_receiptdate"),
		expr.AndOf(
			expr.InStrings(expr.C("l_shipmode"), p.Strs...),
			expr.Lt(expr.C("l_commitdate"), expr.C("l_receiptdate")),
			expr.Lt(expr.C("l_shipdate"), expr.C("l_commitdate")),
			expr.Ge(expr.C("l_receiptdate"), dd(p.Date)),
			expr.Lt(expr.C("l_receiptdate"), dd(addYears(p.Date, 1)))))
	j := plan.NewJoin(plan.Inner, li,
		plan.NewScan("orders", "o_orderkey", "o_orderpriority"),
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	isHigh := expr.InStrings(expr.C("o_orderpriority"), "1-URGENT", "2-HIGH")
	agg := plan.NewAggregate(j, []string{"l_shipmode"},
		plan.A(plan.Sum, expr.CaseWhen(isHigh, expr.Int(1), expr.Int(0)), "high_line_count"),
		plan.A(plan.Sum, expr.CaseWhen(isHigh.Clone(), expr.Int(0), expr.Int(1)), "low_line_count"))
	return plan.NewSort(agg, plan.SortKey{Col: "l_shipmode"})
}

// Q13: customer distribution.
func Q13(p Params) *plan.Node {
	ord := plan.NewSelect(plan.NewScan("orders", "o_orderkey", "o_custkey", "o_comment"),
		expr.NotLikeOf(expr.C("o_comment"), "%"+p.Str1+"%"+p.Str2+"%"))
	oj := plan.NewJoin(plan.LeftOuter,
		plan.NewScan("customer", "c_custkey"), ord,
		[]string{"c_custkey"}, []string{"o_custkey"})
	perCust := plan.NewAggregate(oj, []string{"c_custkey"},
		plan.A(plan.Sum, expr.C(plan.MatchCol), "c_count"))
	dist := plan.NewAggregate(perCust, []string{"c_count"},
		plan.A(plan.Count, nil, "custdist"))
	return plan.NewSort(dist,
		plan.SortKey{Col: "custdist", Desc: true}, plan.SortKey{Col: "c_count", Desc: true})
}

// Q14: promotion effect.
func Q14(p Params) *plan.Node {
	li := plan.NewSelect(
		plan.NewScan("lineitem", "l_partkey", "l_extendedprice", "l_discount", "l_shipdate"),
		expr.AndOf(
			expr.Ge(expr.C("l_shipdate"), dd(p.Date)),
			expr.Lt(expr.C("l_shipdate"), dd(addMonths(p.Date, 1)))))
	j := plan.NewJoin(plan.Inner, li,
		plan.NewScan("part", "p_partkey", "p_type"),
		[]string{"l_partkey"}, []string{"p_partkey"})
	agg := plan.NewAggregate(j, nil,
		plan.A(plan.Sum, expr.CaseWhen(
			expr.LikeOf(expr.C("p_type"), "PROMO%"),
			revenue(), expr.Flt(0)), "promo"),
		plan.A(plan.Sum, revenue(), "total"))
	return plan.NewProject(agg,
		plan.P(expr.Div(expr.Mul(expr.Flt(100), expr.C("promo")), expr.C("total")),
			"promo_revenue"))
}

// Q15: top supplier (the revenue view appears twice; the recycler unifies
// the shared subtree, exercising intra-query sharing).
func Q15(p Params) *plan.Node {
	rev := plan.NewAggregate(
		plan.NewSelect(
			plan.NewScan("lineitem", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
			expr.AndOf(
				expr.Ge(expr.C("l_shipdate"), dd(p.Date)),
				expr.Lt(expr.C("l_shipdate"), dd(addMonths(p.Date, 3))))),
		[]string{"l_suppkey"},
		plan.A(plan.Sum, revenue(), "total_revenue"))
	maxr := plan.NewProject(
		plan.NewAggregate(rev.Clone(), nil,
			plan.A(plan.Max, expr.C("total_revenue"), "max_rev")),
		plan.P(expr.C("max_rev"), "max_rev"))
	cross := plan.NewJoin(plan.Inner, rev, maxr, nil, nil)
	fil := plan.NewSelect(cross, expr.Eq(expr.C("total_revenue"), expr.C("max_rev")))
	j := plan.NewJoin(plan.Inner, fil,
		plan.NewScan("supplier", "s_suppkey", "s_name"),
		[]string{"l_suppkey"}, []string{"s_suppkey"})
	proj := plan.NewProject(j,
		plan.P(expr.C("s_suppkey"), "s_suppkey"),
		plan.P(expr.C("s_name"), "s_name"),
		plan.P(expr.C("total_revenue"), "total_revenue"))
	return plan.NewSort(proj, plan.SortKey{Col: "s_suppkey"})
}

// q16Pred is the Q16 part filter.
func q16Pred(p Params) expr.Expr {
	sizes := make([]vector.Datum, len(p.Ints))
	for i, s := range p.Ints {
		sizes[i] = vector.NewInt64Datum(s)
	}
	return expr.AndOf(
		expr.Ne(expr.C("p_brand"), expr.Str(p.Str1)),
		expr.NotLikeOf(expr.C("p_type"), p.Str2+"%"),
		expr.In(expr.C("p_size"), sizes...))
}

// q16Dedup is the shared Q16 core: distinct (brand, type, size, suppkey)
// combinations from non-complaint suppliers.
func q16Dedup() *plan.Node {
	ps := plan.NewJoin(plan.Inner,
		plan.NewScan("partsupp", "ps_partkey", "ps_suppkey"),
		plan.NewScan("part", "p_partkey", "p_brand", "p_type", "p_size"),
		[]string{"ps_partkey"}, []string{"p_partkey"})
	good := plan.NewJoin(plan.LeftAnti, ps,
		plan.NewSelect(plan.NewScan("supplier", "s_suppkey", "s_comment"),
			expr.LikeOf(expr.C("s_comment"), "%Customer%Complaints%")),
		[]string{"ps_suppkey"}, []string{"s_suppkey"})
	return plan.NewAggregate(good,
		[]string{"p_brand", "p_type", "p_size", "ps_suppkey"},
		plan.A(plan.Count, nil, "dup"))
}

// Q16: parts/supplier relationship (selection pushed below the distinct
// aggregation, the conventional optimized shape).
func Q16(p Params) *plan.Node {
	ps := plan.NewJoin(plan.Inner,
		plan.NewScan("partsupp", "ps_partkey", "ps_suppkey"),
		plan.NewSelect(
			plan.NewScan("part", "p_partkey", "p_brand", "p_type", "p_size"),
			q16Pred(p)),
		[]string{"ps_partkey"}, []string{"p_partkey"})
	good := plan.NewJoin(plan.LeftAnti, ps,
		plan.NewSelect(plan.NewScan("supplier", "s_suppkey", "s_comment"),
			expr.LikeOf(expr.C("s_comment"), "%Customer%Complaints%")),
		[]string{"ps_suppkey"}, []string{"s_suppkey"})
	dedup := plan.NewAggregate(good,
		[]string{"p_brand", "p_type", "p_size", "ps_suppkey"},
		plan.A(plan.Count, nil, "dup"))
	agg := plan.NewAggregate(dedup, []string{"p_brand", "p_type", "p_size"},
		plan.A(plan.Count, nil, "supplier_cnt"))
	return plan.NewSort(agg,
		plan.SortKey{Col: "supplier_cnt", Desc: true},
		plan.SortKey{Col: "p_brand"}, plan.SortKey{Col: "p_type"}, plan.SortKey{Col: "p_size"})
}

// Q16PA: the manually altered proactive variant (§V: "we simulate their
// benefit by manually altering query plans"): the part filter is hoisted
// above the parameter-independent dedup aggregation so the cube-caching rule
// fires on the aggregate-over-selection pattern.
func Q16PA(p Params) *plan.Node {
	sel := plan.NewSelect(q16Dedup(), q16Pred(p))
	agg := plan.NewAggregate(sel, []string{"p_brand", "p_type", "p_size"},
		plan.A(plan.Count, nil, "supplier_cnt"))
	return plan.NewSort(agg,
		plan.SortKey{Col: "supplier_cnt", Desc: true},
		plan.SortKey{Col: "p_brand"}, plan.SortKey{Col: "p_type"}, plan.SortKey{Col: "p_size"})
}

// Q17: small-quantity-order revenue.
func Q17(p Params) *plan.Node {
	parts := plan.NewSelect(
		plan.NewScan("part", "p_partkey", "p_brand", "p_container"),
		expr.AndOf(
			expr.Eq(expr.C("p_brand"), expr.Str(p.Str1)),
			expr.Eq(expr.C("p_container"), expr.Str(p.Str2))))
	avgq := plan.NewProject(
		plan.NewAggregate(
			plan.NewScan("lineitem", "l_partkey", "l_quantity"),
			[]string{"l_partkey"},
			plan.A(plan.Avg, expr.C("l_quantity"), "avg_qty")),
		plan.P(expr.C("l_partkey"), "aq_partkey"),
		plan.P(expr.Mul(expr.Flt(0.2), expr.C("avg_qty")), "qty_limit"))
	li := plan.NewJoin(plan.Inner,
		plan.NewScan("lineitem", "l_partkey", "l_quantity", "l_extendedprice"),
		parts, []string{"l_partkey"}, []string{"p_partkey"})
	j := plan.NewJoin(plan.Inner, li, avgq, []string{"l_partkey"}, []string{"aq_partkey"})
	fil := plan.NewSelect(j, expr.Lt(expr.C("l_quantity"), expr.C("qty_limit")))
	agg := plan.NewAggregate(fil, nil,
		plan.A(plan.Sum, expr.C("l_extendedprice"), "total"))
	return plan.NewProject(agg,
		plan.P(expr.Div(expr.C("total"), expr.Flt(7)), "avg_yearly"))
}

// Q18: large volume customers.
func Q18(p Params) *plan.Node {
	big := plan.NewSelect(
		plan.NewAggregate(
			plan.NewScan("lineitem", "l_orderkey", "l_quantity"),
			[]string{"l_orderkey"},
			plan.A(plan.Sum, expr.C("l_quantity"), "total_qty")),
		expr.Gt(expr.C("total_qty"), expr.Int(p.Int1)))
	j1 := plan.NewJoin(plan.Inner, big,
		plan.NewScan("orders", "o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"),
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	j2 := plan.NewJoin(plan.Inner, j1,
		plan.NewScan("customer", "c_custkey", "c_name"),
		[]string{"o_custkey"}, []string{"c_custkey"})
	top := plan.NewTopN(j2, []plan.SortKey{
		{Col: "o_totalprice", Desc: true}, {Col: "o_orderdate"},
	}, 100)
	return plan.NewProject(top,
		plan.P(expr.C("c_name"), "c_name"),
		plan.P(expr.C("c_custkey"), "c_custkey"),
		plan.P(expr.C("o_orderkey"), "o_orderkey"),
		plan.P(expr.C("o_orderdate"), "o_orderdate"),
		plan.P(expr.C("o_totalprice"), "o_totalprice"),
		plan.P(expr.C("total_qty"), "total_qty"))
}

// Q19: discounted revenue (disjunctive predicate over lineitem x part).
func Q19(p Params) *plan.Node {
	li := plan.NewSelect(
		plan.NewScan("lineitem", "l_partkey", "l_quantity", "l_extendedprice",
			"l_discount", "l_shipinstruct", "l_shipmode"),
		expr.AndOf(
			expr.InStrings(expr.C("l_shipmode"), "AIR", "AIR REG"),
			expr.Eq(expr.C("l_shipinstruct"), expr.Str("DELIVER IN PERSON"))))
	j := plan.NewJoin(plan.Inner, li,
		plan.NewScan("part", "p_partkey", "p_brand", "p_container", "p_size"),
		[]string{"l_partkey"}, []string{"p_partkey"})
	arm := func(brand string, containers []string, qlo int64, sizeHi int64) expr.Expr {
		cs := make([]vector.Datum, len(containers))
		for i, c := range containers {
			cs[i] = vector.NewStringDatum(c)
		}
		return expr.AndOf(
			expr.Eq(expr.C("p_brand"), expr.Str(brand)),
			expr.In(expr.C("p_container"), cs...),
			expr.Ge(expr.C("l_quantity"), expr.Int(qlo)),
			expr.Le(expr.C("l_quantity"), expr.Int(qlo+10)),
			expr.Between(expr.C("p_size"), expr.Int(1), expr.Int(sizeHi)))
	}
	sel := plan.NewSelect(j, expr.OrOf(
		arm(p.Brands[0], []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, p.Quants[0], 5),
		arm(p.Brands[1], []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, p.Quants[1], 10),
		arm(p.Brands[2], []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, p.Quants[2], 15)))
	return plan.NewAggregate(sel, nil, plan.A(plan.Sum, revenue(), "revenue"))
}

// Q20: potential part promotion.
func Q20(p Params) *plan.Node {
	qty := plan.NewAggregate(
		plan.NewSelect(
			plan.NewScan("lineitem", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate"),
			expr.AndOf(
				expr.Ge(expr.C("l_shipdate"), dd(p.Date)),
				expr.Lt(expr.C("l_shipdate"), dd(addYears(p.Date, 1))))),
		[]string{"l_partkey", "l_suppkey"},
		plan.A(plan.Sum, expr.C("l_quantity"), "sq"))
	ps := plan.NewJoin(plan.Inner,
		plan.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty"),
		qty, []string{"ps_partkey", "ps_suppkey"}, []string{"l_partkey", "l_suppkey"})
	fil := plan.NewSelect(ps,
		expr.Gt(expr.C("ps_availqty"), expr.Mul(expr.Flt(0.5), expr.C("sq"))))
	parts := plan.NewSelect(plan.NewScan("part", "p_partkey", "p_name"),
		expr.LikeOf(expr.C("p_name"), p.Str1+"%"))
	fil2 := plan.NewJoin(plan.LeftSemi, fil, parts,
		[]string{"ps_partkey"}, []string{"p_partkey"})
	sup := plan.NewJoin(plan.Inner,
		plan.NewScan("supplier", "s_suppkey", "s_name", "s_nationkey"),
		plan.NewSelect(plan.NewScan("nation", "n_nationkey", "n_name"),
			expr.Eq(expr.C("n_name"), expr.Str(p.Str2))),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	res := plan.NewJoin(plan.LeftSemi, sup, fil2,
		[]string{"s_suppkey"}, []string{"ps_suppkey"})
	proj := plan.NewProject(res, plan.P(expr.C("s_name"), "s_name"))
	return plan.NewSort(proj, plan.SortKey{Col: "s_name"})
}

// Q21: suppliers who kept orders waiting. EXISTS / NOT EXISTS over "another
// supplier on the same order" decorrelate into per-order supplier counts.
func Q21(p Params) *plan.Node {
	sup := plan.NewJoin(plan.Inner,
		plan.NewScan("supplier", "s_suppkey", "s_name", "s_nationkey"),
		plan.NewSelect(plan.NewScan("nation", "n_nationkey", "n_name"),
			expr.Eq(expr.C("n_name"), expr.Str(p.Str1))),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	l1 := plan.NewSelect(
		plan.NewScan("lineitem", "l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"),
		expr.Gt(expr.C("l_receiptdate"), expr.C("l_commitdate")))
	j1 := plan.NewJoin(plan.Inner, l1, sup, []string{"l_suppkey"}, []string{"s_suppkey"})
	ordF := plan.NewSelect(plan.NewScan("orders", "o_orderkey", "o_orderstatus"),
		expr.Eq(expr.C("o_orderstatus"), expr.Str("F")))
	j2 := plan.NewJoin(plan.Inner, j1, ordF, []string{"l_orderkey"}, []string{"o_orderkey"})
	// Orders served by at least two distinct suppliers.
	multi := plan.NewSelect(
		plan.NewAggregate(
			plan.NewAggregate(
				plan.NewScan("lineitem", "l_orderkey", "l_suppkey"),
				[]string{"l_orderkey", "l_suppkey"},
				plan.A(plan.Count, nil, "dup")),
			[]string{"l_orderkey"},
			plan.A(plan.Count, nil, "nsupp")),
		expr.Ge(expr.C("nsupp"), expr.Int(2)))
	j3 := plan.NewJoin(plan.LeftSemi, j2, multi,
		[]string{"l_orderkey"}, []string{"l_orderkey"})
	// Orders where exactly one supplier was late.
	lateOne := plan.NewSelect(
		plan.NewAggregate(
			plan.NewAggregate(
				plan.NewSelect(
					plan.NewScan("lineitem", "l_orderkey", "l_suppkey",
						"l_receiptdate", "l_commitdate"),
					expr.Gt(expr.C("l_receiptdate"), expr.C("l_commitdate"))),
				[]string{"l_orderkey", "l_suppkey"},
				plan.A(plan.Count, nil, "dup")),
			[]string{"l_orderkey"},
			plan.A(plan.Count, nil, "nlate")),
		expr.Eq(expr.C("nlate"), expr.Int(1)))
	j4 := plan.NewJoin(plan.LeftSemi, j3, lateOne,
		[]string{"l_orderkey"}, []string{"l_orderkey"})
	agg := plan.NewAggregate(j4, []string{"s_name"},
		plan.A(plan.Count, nil, "numwait"))
	return plan.NewTopN(agg, []plan.SortKey{
		{Col: "numwait", Desc: true}, {Col: "s_name"},
	}, 100)
}

// Q22: global sales opportunity.
func Q22(p Params) *plan.Node {
	cust := plan.NewProject(
		plan.NewScan("customer", "c_custkey", "c_phone", "c_acctbal"),
		plan.P(expr.C("c_custkey"), "c_custkey"),
		plan.P(expr.SubstrOf(expr.C("c_phone"), 1, 2), "cntrycode"),
		plan.P(expr.C("c_acctbal"), "c_acctbal"))
	inCodes := plan.NewSelect(cust, expr.InStrings(expr.C("cntrycode"), p.Strs...))
	avgBal := plan.NewProject(
		plan.NewAggregate(
			plan.NewSelect(inCodes.Clone(), expr.Gt(expr.C("c_acctbal"), expr.Flt(0))),
			nil, plan.A(plan.Avg, expr.C("c_acctbal"), "ab")),
		plan.P(expr.C("ab"), "avg_bal"))
	cross := plan.NewJoin(plan.Inner, inCodes, avgBal, nil, nil)
	fil := plan.NewSelect(cross, expr.Gt(expr.C("c_acctbal"), expr.C("avg_bal")))
	noOrd := plan.NewJoin(plan.LeftAnti, fil,
		plan.NewScan("orders", "o_custkey"),
		[]string{"c_custkey"}, []string{"o_custkey"})
	agg := plan.NewAggregate(noOrd, []string{"cntrycode"},
		plan.A(plan.Count, nil, "numcust"),
		plan.A(plan.Sum, expr.C("c_acctbal"), "totacctbal"))
	return plan.NewSort(agg, plan.SortKey{Col: "cntrycode"})
}
