package harness

import (
	"fmt"
	"math/rand"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
	"recycledb/internal/workload"
)

// This file builds the query mixes the golden, stress and race suites draw
// from: an online serving tier issuing TPC-H dashboard refreshes and
// SkyServer cone searches against one shared engine. Each pattern draws from
// a small pool of fixed parameter variants — exactly the repetition structure
// (identical and near-identical queries from many clients) that gives the
// recycler sharing potential.

// MixedCatalog loads TPC-H at the given scale factor and a synthetic
// SkyServer sky of skyObjects objects into one catalog.
func MixedCatalog(sf float64, skyObjects int, seed int64) *catalog.Catalog {
	cat := catalog.New()
	tpch.Generate(cat, sf, seed)
	skyserver.Load(cat, skyObjects, seed)
	return cat
}

// TPCHMix returns a weighted client mix over a subset of TPC-H patterns,
// each with a pool of `variants` fixed parameter draws. Small pools model
// the dashboard case: many clients asking the same few questions.
func TPCHMix(variants int, seed int64) workload.Mix {
	if variants <= 0 {
		variants = 4
	}
	rng := rand.New(rand.NewSource(seed))
	patterns := []struct {
		q      int
		weight int
	}{
		{1, 4}, {3, 3}, {6, 4}, {12, 2}, {14, 2},
	}
	var mix workload.Mix
	for _, pat := range patterns {
		pool := make([]tpch.Params, variants)
		for i := range pool {
			pool[i] = tpch.NewParams(pat.q, rng)
		}
		mix = append(mix, workload.MixEntry{
			Label:  fmt.Sprintf("Q%d", pat.q),
			Weight: pat.weight,
			Make: func(rng *rand.Rand) *plan.Node {
				return tpch.Build(pool[rng.Intn(len(pool))])
			},
		})
	}
	return mix
}

// skyServerMix returns a client mix over the SkyServer workload patterns
// (dominant cone search, narrow projections, aggregations, other cones),
// weighted like the paper's log sample.
func skyServerMix(seed int64) workload.Mix {
	pool := skyserver.Workload(64, seed)
	byPattern := make(map[string][]*plan.Node)
	var order []string
	for _, q := range pool {
		if _, ok := byPattern[q.Pattern]; !ok {
			order = append(order, q.Pattern)
		}
		byPattern[q.Pattern] = append(byPattern[q.Pattern], q.Plan)
	}
	var mix workload.Mix
	for _, pat := range order {
		plans := byPattern[pat]
		mix = append(mix, workload.MixEntry{
			Label:  pat,
			Weight: len(plans),
			Make: func(rng *rand.Rand) *plan.Node {
				return plans[rng.Intn(len(plans))]
			},
		})
	}
	return mix
}

// MixedMix combines the TPC-H and SkyServer mixes into one client workload.
func MixedMix(variants int, seed int64) workload.Mix {
	return append(TPCHMix(variants, seed), skyServerMix(seed)...)
}

// PermutedMix returns near-variant patterns whose written conjunct order is
// shuffled per draw: the same parameters arrive as `a AND b AND c`,
// `b AND a AND c`, ... — the way different dashboard authors write the same
// filter. Without the optimizer each permutation is a distinct recycler
// shape (zero cross-permutation reuse, up to 5! shapes per parameter draw);
// the optimizer's canonical chain splitting collapses every permutation of
// one parameter draw to one shape. This is the workload slice where plan
// normalization, not caching alone, earns the hit rate.
func PermutedMix(variants int, seed int64) workload.Mix {
	if variants <= 0 {
		variants = 4
	}
	rng := rand.New(rand.NewSource(seed))

	// TPC-H Q6 revenue change: five rotatable conjuncts over lineitem.
	q6pool := make([]tpch.Params, variants)
	for i := range q6pool {
		q6pool[i] = tpch.NewParams(6, rng)
	}
	q6 := func(p tpch.Params, rng *rand.Rand) *plan.Node {
		conj := permute([]expr.Expr{
			expr.Ge(expr.C("l_shipdate"), expr.DateDays(p.Date)),
			expr.Lt(expr.C("l_shipdate"), expr.DateDays(tpch.AddYears(p.Date, 1))),
			expr.Ge(expr.C("l_discount"), expr.Flt(p.Float1-0.011)),
			expr.Le(expr.C("l_discount"), expr.Flt(p.Float1+0.011)),
			expr.Lt(expr.C("l_quantity"), expr.Int(p.Int1)),
		}, rng)
		sel := plan.NewSelect(
			plan.NewScan("lineitem", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"),
			expr.AndOf(conj...))
		return plan.NewAggregate(sel, nil,
			plan.A(plan.Sum, expr.Mul(expr.C("l_extendedprice"), expr.C("l_discount")), "revenue"))
	}

	// SkyServer box search: magnitude histogram over a sky rectangle, four
	// shuffled conjuncts over PhotoPrimary.
	type box struct{ ra, dec float64 }
	boxes := make([]box, variants)
	for i := range boxes {
		boxes[i] = box{ra: 150 + 15*float64(rng.Intn(5)), dec: -10 + 10*float64(rng.Intn(4))}
	}
	sky := func(b box, rng *rand.Rand) *plan.Node {
		conj := permute([]expr.Expr{
			expr.Ge(expr.C("ra"), expr.Flt(b.ra)),
			expr.Lt(expr.C("ra"), expr.Flt(b.ra+30)),
			expr.Ge(expr.C("dec"), expr.Flt(b.dec)),
			expr.Lt(expr.C("r_mag"), expr.Flt(21)),
		}, rng)
		sel := plan.NewSelect(
			plan.NewScan("PhotoPrimary", "objID", "ra", "dec", "type", "r_mag"),
			expr.AndOf(conj...))
		return plan.NewAggregate(sel, []string{"type"},
			plan.A(plan.Count, nil, "n"),
			plan.A(plan.Avg, expr.C("r_mag"), "avg_r"))
	}

	return workload.Mix{
		{
			Label:  "perm-Q6",
			Weight: 3,
			Make: func(rng *rand.Rand) *plan.Node {
				return q6(q6pool[rng.Intn(len(q6pool))], rng)
			},
		},
		{
			Label:  "perm-skybox",
			Weight: 2,
			Make: func(rng *rand.Rand) *plan.Node {
				return sky(boxes[rng.Intn(len(boxes))], rng)
			},
		},
	}
}

// OptimizerMix is the optimized-vs-unoptimized comparison workload: the
// standard TPC-H + SkyServer serving mix plus the permuted near-variants.
func OptimizerMix(variants int, seed int64) workload.Mix {
	return append(MixedMix(variants, seed), PermutedMix(variants, seed)...)
}

// permute returns es in a random order drawn from rng (a copy; es is
// untouched).
func permute(es []expr.Expr, rng *rand.Rand) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, j := range rng.Perm(len(es)) {
		out[i] = es[j]
	}
	return out
}
